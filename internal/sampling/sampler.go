// Package sampling implements §III of the paper: estimating
// correspondence probabilities by sampling matching instances. It
// provides the non-uniform sampler of Algorithm 3 (random walk with
// simulated-annealing acceptance), an exact enumerator of all matching
// instances for small networks (Equation 1 / Figure 7), and a sample
// store with view maintenance under user assertions (§III-B).
package sampling

import (
	"math"
	"math/rand"

	"schemanet/internal/bitset"
	"schemanet/internal/constraints"
)

// Config parameterizes the sampler. The Anneal and Maximize switches
// exist for the ablation benches; the paper's algorithm corresponds to
// both being true.
type Config struct {
	// WalkSteps is k of Algorithm 3: random-walk steps per emitted
	// sample.
	WalkSteps int
	// NMin is the view-maintenance tolerance threshold n_min of §III-B.
	NMin int
	// Anneal enables the simulated-annealing acceptance probability
	// 1 − e^{−Δ}; when false every proposed move is accepted (plain
	// random walk), which tends to stay inside one sample region.
	Anneal bool
	// Maximize saturates each sample to maximality (Definition 1).
	Maximize bool
	// RestartProb is the probability that an emission starts a fresh
	// walk from a randomized maximal instance instead of continuing the
	// current chain. Restarts are a standard local-search diversification
	// that raises instance-space coverage — the quantity that governs
	// the quality of the Equation 2 estimate (see DESIGN.md).
	RestartProb float64
	// StagnationLimit ends a sampling round early after this many
	// consecutive emissions that discovered no new distinct instance.
	// 0 means unset: the sampler never stops early, but the PMN
	// substitutes a component-scaled default for its component
	// samplers — except the single component of a network that is one
	// component at construction (or built Config.Monolithic), which
	// keeps 0 and so never stops early. Negative disables early stopping
	// unconditionally. A
	// saturated round ends "below n_min" just as a full round would, so
	// the §III-B completeness conclusion is unchanged — the limit only
	// stops paying for emissions that demonstrably cannot add coverage
	// (a small component's entire instance space saturates within a few
	// dozen emissions).
	StagnationLimit int
}

// DefaultConfig returns the configuration used by the experiments.
func DefaultConfig() Config {
	return Config{WalkSteps: 4, NMin: 200, Anneal: true, Maximize: true, RestartProb: 0.5}
}

// Sampler draws matching instances for one network and constraint set.
// A Sampler is not safe for concurrent use (it owns an rng and reuses
// walk scratch buffers, and the engine's Maximize/Repair primitives
// reuse engine-owned scratch). Distinct samplers over distinct engine
// forks (Engine.Fork) with distinct rngs may run concurrently — the
// decomposed PMN gives each component such a sampler, which is what
// makes component-disjoint assertions parallelizable.
type Sampler struct {
	engine   *constraints.Engine
	cfg      Config
	rng      *rand.Rand
	freeMask *bitset.Set // scratch: eligible-move mask, reused across walk steps
	exclMask *bitset.Set // scratch: ¬members ∪ F− ∪ retired (see FeedbackWithin)
	aprMask  *bitset.Set // scratch: F+ ∩ members
}

// NewSampler builds a sampler. rng must not be nil.
func NewSampler(engine *constraints.Engine, cfg Config, rng *rand.Rand) *Sampler {
	if cfg.WalkSteps <= 0 {
		cfg.WalkSteps = DefaultConfig().WalkSteps
	}
	if cfg.NMin <= 0 {
		cfg.NMin = DefaultConfig().NMin
	}
	return &Sampler{engine: engine, cfg: cfg, rng: rng}
}

// Config returns the sampler's configuration.
func (s *Sampler) Config() Config { return s.cfg }

// ResetScratch drops the sampler's lazily allocated scratch masks so the
// next walk re-derives them from the engine at the current universe
// size. Callers must invoke it after the candidate universe grows.
func (s *Sampler) ResetScratch() {
	s.freeMask, s.exclMask, s.aprMask = nil, nil, nil
}

// FeedbackWithin derives the component-restricted form of the feedback
// masks shared by every restricted operation (SampleInto,
// EnumerateWithin, the instantiation heuristic, the exact backend's
// maximality probe): aprOut = F+ ∩ within and exclOut = ¬within ∪ F− ∪
// R, where R is e's retired mask — a retired candidate can never join an
// instance, so every walk, repair, and saturation treats it as
// excluded. When non-nil, aprBuf and exclBuf are reused as destinations
// (capacity NumCandidates); otherwise fresh sets are allocated. aprOut
// is nil when approved is nil.
func FeedbackWithin(e *constraints.Engine, approved, disapproved, within, aprBuf, exclBuf *bitset.Set) (aprOut, exclOut *bitset.Set) {
	if exclBuf == nil {
		exclBuf = e.NewInstance()
	}
	exclBuf.SetAll()
	exclBuf.DifferenceWith(within)
	if disapproved != nil {
		exclBuf.UnionWith(disapproved)
	}
	if r := e.RetiredMask(); r != nil {
		exclBuf.UnionWith(r)
	}
	if approved == nil {
		return nil, exclBuf
	}
	if aprBuf == nil {
		aprBuf = e.NewInstance()
	}
	aprBuf.CopyFrom(approved)
	aprBuf.IntersectWith(within)
	return aprBuf, exclBuf
}

// freeCandidates recomputes the sampler's free mask — the candidates
// eligible for a walk move: within \ I \ excluded — as word-wise passes
// over the scratch bitset and returns its population count. A uniform
// move is then freeMask.NthMember(rng.Intn(count)): the same candidate a
// slice-based scan would have picked, without the O(C) append loop.
func (s *Sampler) freeCandidates(inst, excluded, within *bitset.Set) int {
	if s.freeMask == nil {
		s.freeMask = s.engine.NewInstance()
	}
	s.freeMask.CopyFrom(within)
	s.freeMask.DifferenceWith(inst)
	s.freeMask.DifferenceWith(excluded)
	return s.freeMask.Count()
}

// SampleInto runs Algorithm 3 for n emitted samples over the store's
// members, adding each to the store. The walk starts from the store's
// last instance when available, otherwise from the approved members
// (I0 ← F+ ∩ members, saturated when Maximize is on).
//
// The walk only ever moves on the store's members, and the repairs and
// saturations exclude everything outside them, so the emitted instances
// are maximal consistent subsets of the member candidates. Because
// constraints never couple candidates across components (see
// Engine.Components), a walk over one constraint-connected component
// samples the component's factor of the instance space exactly as a
// walk over the whole universe (a NewStore store) samples the product.
func (s *Sampler) SampleInto(store *Store, approved, disapproved *bitset.Set, n int) {
	// The walk excludes ¬members ∪ F− ∪ retired everywhere, and seeds
	// from F+ ∩ members. Both masks are fixed for the whole call, so
	// they are computed once into scratch.
	within, members := store.memberMask, store.members
	if s.exclMask == nil {
		s.exclMask = s.engine.NewInstance()
	}
	if s.aprMask == nil && approved != nil {
		s.aprMask = s.engine.NewInstance()
	}
	apr, excluded := FeedbackWithin(s.engine, approved, disapproved, within, s.aprMask, s.exclMask)
	fresh := func() *bitset.Set {
		inst := s.engine.NewInstance()
		if apr != nil {
			inst.UnionWith(apr)
		}
		if s.cfg.Maximize {
			s.engine.MaximizeWithin(inst, excluded, members, s.rng)
		}
		return inst
	}
	cur := store.LastInstance()
	if cur == nil {
		cur = fresh()
	} else {
		cur = cur.Clone()
	}

	next := cur.Clone()
	stale := 0
	for i := 0; i < n; i++ {
		if i > 0 && s.rng.Float64() < s.cfg.RestartProb {
			cur = fresh()
			next = cur.Clone()
		}
		for j := 0; j < s.cfg.WalkSteps; j++ {
			nFree := s.freeCandidates(cur, excluded, within)
			if nFree == 0 {
				break
			}
			c := s.freeMask.NthMember(s.rng.Intn(nFree))
			next.CopyFrom(cur)
			s.engine.Repair(next, c, apr)
			if s.cfg.Maximize {
				s.engine.MaximizeWithin(next, excluded, members, s.rng)
			}
			delta := cur.SymmetricDiffCount(next)
			accept := true
			if s.cfg.Anneal {
				accept = s.rng.Float64() < 1-math.Exp(-float64(delta))
			}
			if accept {
				cur, next = next, cur
			}
		}
		if store.Add(cur) {
			stale = 0
		} else if stale++; s.cfg.StagnationLimit > 0 && stale >= s.cfg.StagnationLimit {
			return
		}
	}
}

// Sample is a convenience that creates a fresh store and fills it with n
// samples.
func (s *Sampler) Sample(approved, disapproved *bitset.Set, n int) *Store {
	store := NewStore(s.engine.Network().NumCandidates(), s.cfg.NMin)
	s.SampleInto(store, approved, disapproved, n)
	return store
}
