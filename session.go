package schemanet

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"schemanet/internal/constraints"
	"schemanet/internal/core"
	"schemanet/internal/instantiate"
	"schemanet/internal/schema"
	"schemanet/internal/wal"
)

// Session is a pay-as-you-go reconciliation session over one network:
// it holds the probabilistic matching network, suggests the most
// informative correspondences for review, integrates assertions, and
// instantiates a trusted matching on demand.
//
// All Session methods are safe for concurrent use — the paper's loop is
// interactive, and many experts may assert against one network at once.
// The model exploits the component decomposition's independence
// guarantee (no constraint violation ever spans two constraint-connected
// components, see DESIGN.md):
//
//   - Reads — Probability, Uncertainty, and Suggest under the default
//     info-gain strategy — load an atomically published, immutable
//     snapshot per component and never block on writers.
//   - Writes — Assert, AssertBatch — take one lock per touched
//     component. Assertions on different components proceed in
//     parallel; assertions on the same component serialize.
//   - Publication is coalesced: an Assert only marks its component
//     dirty, and the next reader that touches the component republishes
//     once under the component's lock. Gain ranking is deferred further,
//     to the next Suggest, which ranks only the components whose entropy
//     term can still reach the best gain found.
//   - Each component of a decomposed network samples from its own
//     deterministic rng stream, so a component-disjoint assertion
//     schedule yields bit-identical probabilities however the
//     goroutines interleave.
//   - Instantiate, Suggest under a non-default strategy, and the
//     topology mutators take exclusive access. Save only copies the
//     operation log, under the feedback lock.
//
// Driven from one goroutine, a Session makes the same suggestions,
// computes the same probabilities, and consumes its rng exactly as a
// sequential implementation of the loop would.
type Session struct {
	engine *constraints.Engine
	pmn    *core.PMN
	// strategy is the configured Options.Strategy, or nil for the
	// default info-gain ordering, which Suggest serves from the
	// published snapshots.
	strategy core.Strategy
	instCfg  instantiate.Config
	rng      *rand.Rand
	workers  int // Options.Workers, for AssertBatch's fan-out

	// fixedTopology marks the monolithic and interpreted reference
	// paths (see export_test.go): both lack the component machinery the
	// topology mutators ride on.
	fixedTopology bool
	// log is the session's one operation log: every assertion (with its
	// annotator) and every topology mutation, in arrival order and name
	// form, numbered from Seq 1. Assertions append under feedMu, topology
	// mutations under topoMu's write side, so a reader holds topoMu's
	// read side and feedMu (logSince). Save, LoadSession, and the
	// SessionStore's WAL, snapshots and recovery all read this log; see
	// session_io.go.
	log []wal.Record

	// topoMu guards the component universe itself: every public method
	// holds the read side (the network, the partition, and the tables
	// below are stable while any reader is in flight), and the topology
	// mutators take the write side while components merge or split and
	// the tables are rebuilt. Go's RWMutex is writer-preferring, so a
	// steady read load cannot starve them. Never re-enter the read side:
	// methods called under topoMu use s.pmn, not the public getters.
	// Lock order: topoMu, batchMu, component locks ascending, feedMu,
	// rngMu.
	topoMu sync.RWMutex
	// batchMu closes AssertBatch's record→apply window against the
	// whole-network operations: a batch holds the read side from before
	// it records the feedback until every component group is applied,
	// and lockAll takes the write side first, so Instantiate never
	// observes feedback recorded for a batch whose stores are still
	// pre-batch.
	batchMu sync.RWMutex
	// locks[k] serializes all maintenance of component k. Multi-lock
	// paths acquire in ascending component order (lockAll).
	locks []sync.Mutex
	// snaps[k] is component k's published snapshot: writers store a
	// fresh probs-only snapshot after maintenance, Suggest upgrades it to
	// a ranked one on demand (rankComponent), everything else only Loads.
	// The Ranked flag travels on the snapshot, so flag and data swap in
	// one atomic store.
	snaps []atomic.Pointer[core.ComponentSnapshot]
	// dirty[k] records that component k has advanced past its published
	// snapshot. Publishers store the snapshot before clearing the flag,
	// so a reader that observes dirty[k] == false loads a snapshot at
	// least as fresh as the clearing writer's.
	dirty []atomic.Bool
	// feedMu guards the PMN-global feedback (history + F±) and the
	// assertion appends to log.
	feedMu sync.Mutex
	// rngMu guards the session rng. Every draw holds it: Suggest's
	// tie-break and fallback draws, Instantiate, Strategy.Next, and the
	// maintenance of component rngComp, whose sampler draws from the
	// session rng itself.
	rngMu sync.Mutex
	// rngComp is core.PMN.SharedRngComponent, refreshed with the tables.
	rngComp int
}

// checkCandidate validates a candidate index against the universe.
func (s *Session) checkCandidate(c int) error {
	if n := s.pmn.Network().NumCandidates(); c < 0 || c >= n {
		return fmt.Errorf("%w: index %d outside [0,%d)", ErrUnknownCandidate, c, n)
	}
	return nil
}

// rebuildTables sizes the per-component lock and snapshot tables to the
// current partition; callers hold topoMu's write side or own the
// session exclusively. carried maps new component indices to the old
// ones a topology change kept verbatim: those keep their published
// snapshot (Ranked flag included) and any pending publication debt.
// Every other component publishes a probs-only snapshot.
func (s *Session) rebuildTables(carried map[int]int) {
	nk := s.pmn.NumComponents()
	snaps := make([]atomic.Pointer[core.ComponentSnapshot], nk)
	dirty := make([]atomic.Bool, nk)
	for k := 0; k < nk; k++ {
		if k0, ok := carried[k]; ok {
			snaps[k].Store(s.snaps[k0].Load())
			dirty[k].Store(s.dirty[k0].Load())
		} else {
			snaps[k].Store(s.pmn.SnapshotComponentProbs(k))
		}
	}
	s.locks = make([]sync.Mutex, nk)
	s.snaps = snaps
	s.dirty = dirty
	s.rngComp = s.pmn.SharedRngComponent()
}

// lockAll acquires exclusive access to everything but the topology:
// the batch exclusion, every component lock in ascending order, the
// feedback lock, and the rng lock.
func (s *Session) lockAll() {
	s.batchMu.Lock()
	for k := range s.locks {
		s.locks[k].Lock()
	}
	s.feedMu.Lock()
	s.rngMu.Lock()
}

func (s *Session) unlockAll() {
	s.rngMu.Unlock()
	s.feedMu.Unlock()
	for k := range s.locks {
		s.locks[k].Unlock()
	}
	s.batchMu.Unlock()
}

// Network returns the session's network. Topology mutators grow it in
// place, so hold any returned sub-structures only briefly.
func (s *Session) Network() *Network {
	s.topoMu.RLock()
	defer s.topoMu.RUnlock()
	return s.pmn.Network()
}

// Suggest returns the candidate whose assertion is expected to reduce
// network uncertainty the most (information gain, §IV-D), or the next
// candidate of the configured Options.Strategy. ok is false when every
// candidate has been asserted.
//
// Under the default strategy Suggest merges the per-component
// maximal-gain tie sets from the published snapshots — it locks a
// component only to republish or rank it — and breaks ties uniformly at
// random from the session rng; once no uncertain candidate remains
// anywhere it degrades to random among the unasserted rest.
func (s *Session) Suggest() (c int, ok bool) {
	s.topoMu.RLock()
	defer s.topoMu.RUnlock()
	if s.strategy != nil {
		s.lockAll()
		defer s.unlockAll()
		return s.strategy.Next(s.pmn, s.rng)
	}
	lazy := !s.pmn.ExhaustiveRank()
	// pool accumulates the draw pool: the tie set of the best gain seen
	// so far, or every unasserted candidate once nothing is uncertain.
	// A single contributor's frozen snapshot slice is used as is; a
	// second one copies it into a pool the loop owns (merged).
	var pool []int
	merged := false
	add := func(ids []int) {
		switch {
		case len(pool) == 0:
			pool = ids
		case !merged:
			pool = append(append(make([]int, 0, len(pool)+len(ids)), pool...), ids...)
			merged = true
		default:
			pool = append(pool, ids...)
		}
	}
	best := -1.0
	consider := func(snap *core.ComponentSnapshot) {
		switch ties, g := snap.Best(); {
		case len(ties) == 0 || g < best:
		case g > best:
			best, pool, merged = g, ties, false
		default:
			add(ties)
		}
	}
	type unranked struct {
		k    int
		snap *core.ComponentSnapshot
	}
	var pending []unranked
	for k := range s.snaps {
		if snap := s.loadFresh(k); snap.Ranked() {
			consider(snap)
		} else {
			pending = append(pending, unranked{k, snap})
		}
	}
	// Rank the unranked components highest-entropy-term first: H_k
	// bounds every member's gain, so once the running best exceeds a
	// component's entropy term (beyond the fp margin) the component can
	// hold neither a maximum nor a tie and is skipped unranked. The bar
	// only rises as ranking proceeds, so components already below it are
	// dropped before the sort. The exhaustive reference route ranks
	// everything.
	below := func(u unranked) bool { return lazy && u.snap.Entropy() < best-core.PruneMargin(best) }
	live := pending[:0]
	for _, u := range pending {
		if !below(u) {
			live = append(live, u)
		}
	}
	sort.Slice(live, func(a, b int) bool {
		ea, eb := live[a].snap.Entropy(), live[b].snap.Entropy()
		if ea != eb {
			return ea > eb
		}
		return live[a].k < live[b].k
	})
	for _, u := range live {
		if !below(u) {
			consider(s.rankComponent(u.k))
		}
	}
	if best < 0 {
		// Nothing is uncertain (no component was skipped): fall back to
		// every unasserted candidate.
		for k := range s.snaps {
			if u := s.loadFresh(k).Unasserted(); len(u) > 0 {
				add(u)
			}
		}
		if len(pool) == 0 {
			return 0, false
		}
	}
	// Merged pools are sorted to ascending candidate id — the pool
	// core.InfoGainStrategy collects — so one draw consumes the rng
	// identically.
	if merged {
		sort.Ints(pool)
	}
	s.rngMu.Lock()
	defer s.rngMu.Unlock()
	return pool[s.rng.Intn(len(pool))], true
}

// loadFresh returns component k's published snapshot, first
// republishing it if coalesced assertions marked it dirty.
func (s *Session) loadFresh(k int) *core.ComponentSnapshot {
	if s.dirty[k].Load() {
		return s.refreshComponent(k)
	}
	return s.snaps[k].Load()
}

// refreshComponent publishes a fresh probs-only snapshot of component
// k under its lock, clearing the dirty flag. Double-checked: a racing
// refresh may already have republished.
func (s *Session) refreshComponent(k int) *core.ComponentSnapshot {
	s.locks[k].Lock()
	defer s.locks[k].Unlock()
	if !s.dirty[k].Load() {
		return s.snaps[k].Load()
	}
	snap := s.pmn.SnapshotComponentProbs(k)
	s.snaps[k].Store(snap)
	s.dirty[k].Store(false)
	return snap
}

// rankComponent upgrades component k's published snapshot to a ranked
// one under the component's lock (core.PMN.SnapshotComponentTop), reusing
// the published probabilities when they are current. Double-checked: a
// racing Suggest may have published a current ranked snapshot first; a
// set dirty flag means assertions landed after it.
func (s *Session) rankComponent(k int) *core.ComponentSnapshot {
	s.locks[k].Lock()
	defer s.locks[k].Unlock()
	cur := s.snaps[k].Load()
	if s.dirty[k].Load() {
		cur = nil // stale: rebuild from the component
	} else if cur.Ranked() {
		return cur
	}
	snap := s.pmn.SnapshotComponentTop(k, cur)
	s.snaps[k].Store(snap)
	s.dirty[k].Store(false)
	return snap
}

// Assert integrates an expert statement about candidate c: the global
// feedback record is serialized under a short lock, view maintenance
// and resampling run under the owning component's lock only, and
// publication is coalesced (the component is marked dirty). It returns
// ErrUnknownCandidate (wrapped) when c is outside the candidate
// universe and an error when c was already asserted (no state changes).
func (s *Session) Assert(c int, correct bool) error { return s.assertAs("", c, correct) }

// assertAs is Assert with the annotator recorded in the operation log —
// the entry point DurableSession.AssertAs uses.
func (s *Session) assertAs(annotator string, c int, correct bool) error {
	s.topoMu.RLock()
	defer s.topoMu.RUnlock()
	if err := s.checkCandidate(c); err != nil {
		return err
	}
	rec := s.assertRecord(annotator, c, correct)
	k := s.pmn.ComponentOf(c)
	s.locks[k].Lock()
	defer s.locks[k].Unlock()
	s.feedMu.Lock()
	err := s.pmn.RecordAssertion(c, correct)
	if err == nil {
		s.appendLog(rec)
	}
	s.feedMu.Unlock()
	if err != nil {
		return err
	}
	s.apply(k, []Assertion{{Cand: c, Approved: correct}})
	s.dirty[k].Store(true)
	return nil
}

// assertRecord renders an assertion of candidate c as a log record;
// the caller holds topoMu's read side.
func (s *Session) assertRecord(annotator string, c int, approved bool) wal.Record {
	net := s.pmn.Network()
	cand := net.Candidate(c)
	return wal.Record{
		Kind: wal.KindAssert, Annotator: annotator,
		From: net.FullName(cand.A), To: net.FullName(cand.B), Approved: approved,
	}
}

// appendLog numbers rec as the next operation and appends it to the
// log; the caller holds the lock that orders the operation (feedMu, or
// topoMu's write side).
func (s *Session) appendLog(rec wal.Record) {
	rec.Seq = uint64(len(s.log)) + 1
	s.log = append(s.log, rec)
}

// logLen returns how many operations the log holds.
func (s *Session) logLen() int {
	s.topoMu.RLock()
	defer s.topoMu.RUnlock()
	s.feedMu.Lock()
	defer s.feedMu.Unlock()
	return len(s.log)
}

// logSince returns a copy of the operation log from position n on.
func (s *Session) logSince(n int) []wal.Record {
	s.topoMu.RLock()
	defer s.topoMu.RUnlock()
	s.feedMu.Lock()
	defer s.feedMu.Unlock()
	return slices.Clone(s.log[n:])
}

// apply runs component k's maintenance for recorded assertions; the
// caller holds locks[k]. The component sampling from the session rng
// also holds rngMu, excluding every other draw from that rng.
func (s *Session) apply(k int, as []Assertion) {
	if k == s.rngComp {
		s.rngMu.Lock()
		defer s.rngMu.Unlock()
	}
	s.pmn.ApplyAssertions(k, as)
}

// AssertBatch integrates many assertions at once — the asynchronous
// arrival pattern of a crowd of experts. The batch is validated and
// recorded atomically (a duplicate, already-asserted, or
// out-of-universe candidate rejects the whole batch with no state
// change), then grouped by component and fanned out across a bounded
// worker pool (Options.Workers): each touched component is
// view-maintained in batch order, refilled at most once, and
// republished under its own lock. Per-component rng streams keep the
// result identical to applying the same batch serially.
func (s *Session) AssertBatch(assertions []Assertion) error {
	return s.assertBatch(assertions, nil)
}

// assertBatch is AssertBatch with annotators[i] recorded in the
// operation log for assertions[i]; nil annotators record none. The
// SessionStore and the log replay enter here.
func (s *Session) assertBatch(assertions []Assertion, annotators []string) error {
	if len(assertions) == 0 {
		return nil
	}
	s.topoMu.RLock()
	defer s.topoMu.RUnlock()
	recs := make([]wal.Record, len(assertions))
	for i, a := range assertions {
		if err := s.checkCandidate(a.Cand); err != nil {
			return fmt.Errorf("assertion %d: %w", i, err)
		}
		var annotator string
		if annotators != nil {
			annotator = annotators[i]
		}
		recs[i] = s.assertRecord(annotator, a.Cand, a.Approved)
	}
	s.batchMu.RLock()
	defer s.batchMu.RUnlock()
	s.feedMu.Lock()
	if err := s.pmn.ValidateBatch(assertions); err != nil {
		s.feedMu.Unlock()
		return err
	}
	for i, a := range assertions {
		if err := s.pmn.RecordAssertion(a.Cand, a.Approved); err != nil {
			// Unreachable after validation; surface loudly if it happens.
			panic(err)
		}
		s.appendLog(recs[i])
	}
	s.feedMu.Unlock()

	groups := s.pmn.GroupByComponent(assertions)
	comps := make([]int, 0, len(groups))
	for k := range groups {
		comps = append(comps, k)
	}
	sort.Ints(comps)
	workers := s.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(comps) {
		workers = len(comps)
	}
	if workers <= 1 {
		for _, k := range comps {
			s.applyGroup(k, groups[k])
		}
		return nil
	}
	next := int64(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= len(comps) {
					return
				}
				k := comps[i]
				s.applyGroup(k, groups[k])
			}
		}()
	}
	wg.Wait()
	return nil
}

// applyGroup runs one component's share of a batch under its lock and
// publishes the fresh probs-only snapshot — one publication per touched
// component per batch.
func (s *Session) applyGroup(k int, as []Assertion) {
	s.locks[k].Lock()
	defer s.locks[k].Unlock()
	s.apply(k, as)
	s.snaps[k].Store(s.pmn.SnapshotComponentProbs(k))
	s.dirty[k].Store(false)
}

// Probability returns the current probability of candidate c from the
// owning component's published snapshot, or ErrUnknownCandidate
// (wrapped) when c is outside the candidate universe.
func (s *Session) Probability(c int) (float64, error) {
	s.topoMu.RLock()
	defer s.topoMu.RUnlock()
	if err := s.checkCandidate(c); err != nil {
		return 0, err
	}
	return s.loadFresh(s.pmn.ComponentOf(c)).ProbabilityAt(s.pmn.LocalIndex(c)), nil
}

// Uncertainty returns the network uncertainty H(C, P) (Equation 3) as
// the sum of the published per-component entropy terms. Under
// concurrent writes each term is internally consistent, and the sum
// reflects each component's latest published state.
func (s *Session) Uncertainty() float64 {
	s.topoMu.RLock()
	defer s.topoMu.RUnlock()
	h := 0.0
	for k := range s.snaps {
		h += s.loadFresh(k).Entropy()
	}
	return h
}

// SamplingEmissions returns the total number of random-walk emissions
// requested from the samplers so far, including the initial fill — the
// sampling-effort unit the adaptive budget (Options.MinSamples,
// MaxSamples, Convergence) economizes. Exact components contribute
// nothing. Use it to compare the cost of budget configurations.
func (s *Session) SamplingEmissions() int { return s.pmn.Emissions() }

// Effort returns the fraction of candidates asserted so far.
func (s *Session) Effort() float64 {
	s.topoMu.RLock()
	defer s.topoMu.RUnlock()
	s.feedMu.Lock()
	defer s.feedMu.Unlock()
	return s.pmn.Feedback().Effort()
}

// Violations returns the number of distinct constraint violations among
// the raw candidate correspondences (retired candidates sit on none).
func (s *Session) Violations() int {
	s.topoMu.RLock()
	defer s.topoMu.RUnlock()
	return s.engine.ViolationCount(s.engine.FullInstance())
}

// Describe renders candidate c with its schemas, attributes, and
// matcher confidence. For an out-of-universe c it returns a placeholder
// string instead of panicking (rendering has no error channel; use
// Probability or Assert for validation that reports ErrUnknownCandidate).
func (s *Session) Describe(c int) string {
	s.topoMu.RLock()
	defer s.topoMu.RUnlock()
	if err := s.checkCandidate(c); err != nil {
		return fmt.Sprintf("<unknown candidate %d>", c)
	}
	return s.pmn.Network().DescribeCandidate(c)
}

// Components returns how many constraint-connected components the
// probabilistic matching network decomposes into — the session's
// maximal write parallelism. Assertions only ever pay for their own
// component; many small components mean cheap assertions.
func (s *Session) Components() int {
	s.topoMu.RLock()
	defer s.topoMu.RUnlock()
	return s.pmn.NumComponents()
}

// ComponentOf returns the index of the constraint-connected component
// candidate c belongs to under the current topology (mutators can merge
// or split components). Callers routing work across components — e.g.
// a component-disjoint assertion schedule run from several goroutines —
// use it to group candidates. It returns ErrUnknownCandidate (wrapped)
// for an out-of-universe c.
func (s *Session) ComponentOf(c int) (int, error) {
	s.topoMu.RLock()
	defer s.topoMu.RUnlock()
	if err := s.checkCandidate(c); err != nil {
		return 0, err
	}
	return s.pmn.ComponentOf(c), nil
}

// InferenceOf reports which estimation backend currently serves
// component k: InferenceExact (noise-free probabilities from the
// component's materialized instance list) or InferenceSampled. Under
// Options.Inference = "auto" a component can flip from sampled to exact
// as assertions shrink it; it never flips back. k is a component index
// as returned by ComponentOf, in [0, Components()).
func (s *Session) InferenceOf(k int) (InferenceMode, error) {
	s.topoMu.RLock()
	defer s.topoMu.RUnlock()
	if k < 0 || k >= s.pmn.NumComponents() {
		return 0, fmt.Errorf("schemanet: component index %d outside [0,%d)", k, s.pmn.NumComponents())
	}
	// The mode is mutable component state (promotion happens under the
	// component's lock).
	s.locks[k].Lock()
	defer s.locks[k].Unlock()
	return s.pmn.ComponentInference(k), nil
}

// Instantiate derives a trusted matching from the current state: a
// maximal constraint-consistent set of correspondences with near-minimal
// repair distance and near-maximal likelihood (§V, Algorithm 2). It can
// be called at any time, with any amount of feedback. The search runs
// per constraint-connected component and merges the per-component
// maximal instances (the objective factorizes; see DESIGN.md,
// "Component decomposition"). It takes exclusive access: assertions
// issued meanwhile wait until it finishes.
func (s *Session) Instantiate() *Matching {
	s.topoMu.RLock()
	defer s.topoMu.RUnlock()
	s.lockAll()
	defer s.unlockAll()
	// Retired candidates are excluded like disapprovals: their conflict
	// rows are cleared, so without the mask the local search could
	// re-acquire them through the repair step.
	dis := s.pmn.Feedback().Disapproved()
	if rm := s.engine.RetiredMask(); rm != nil && !rm.Empty() {
		d := dis.Clone()
		d.UnionWith(rm)
		dis = d
	}
	inst := instantiate.HeuristicDecomposed(
		s.engine, s.pmn.ComponentStores(), s.pmn.ComponentMasks(),
		s.pmn.Probabilities(),
		s.pmn.Feedback().Approved(), dis,
		s.instCfg, s.rng)
	return schema.MatchingFromCandidates(s.pmn.Network(), inst.Members())
}
