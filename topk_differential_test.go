package schemanet_test

// Differential tests for the lazy bound-pruned top-k suggestion
// ranking: on both session surfaces — Session, driven serially and from
// concurrent goroutines, and DurableSession — the pruned path must
// produce suggestions, probabilities, and uncertainty bit-identical to
// the exhaustive reference ranking (WithExhaustiveRank)
// — over randomized assert/grow/retire interleavings, since topology
// changes carry or invalidate the evaluator's cached bounds — on both
// sides of the co-count-matrix cap. This file runs under `go test
// -race` in CI.

import (
	"math/rand"
	"sync"
	"testing"

	"schemanet"
	"schemanet/internal/wal"
)

// suggester is the differential surface shared by Session and
// DurableSession.
type suggester interface {
	Suggest() (int, bool)
	Assert(c int, correct bool) error
	AddCandidates([]schemanet.Correspondence) error
	RetireCandidate(c int) error
	Probability(c int) (float64, error)
	Network() *schemanet.Network
}

// growthPair deterministically picks the next attribute pair that is
// not yet a candidate (attributes from different schemas, scanned in a
// fixed order) — both sides of a differential run derive the identical
// pair from their own private network clones.
func growthPair(net *schemanet.Network, cursor *int) (schemanet.Correspondence, bool) {
	na := net.NumAttributes()
	for ; *cursor < na*na; *cursor++ {
		a := schemanet.AttrID(*cursor / na)
		b := schemanet.AttrID(*cursor % na)
		if a >= b || net.SchemaOf(a) == net.SchemaOf(b) {
			continue
		}
		if net.CandidateIndex(a, b) >= 0 {
			continue
		}
		*cursor++
		return schemanet.Correspondence{A: a, B: b, Confidence: 0.55}, true
	}
	return schemanet.Correspondence{}, false
}

// driveDifferential runs an identical randomized schedule of
// suggest/assert steps, candidate arrivals, and retirements against a
// pruned and an exhaustive session, failing on the first divergence in
// suggestions; at the end every probability must match bitwise.
// observe, when non-nil, sees the live asserted and retired sets before
// every step.
func driveDifferential(t *testing.T, pruned, exhaustive suggester,
	truth *schemanet.Matching, steps int, seed int64, observe func(asserted, retired map[int]bool)) {
	t.Helper()
	sched := rand.New(rand.NewSource(seed))
	prCursor, exCursor := 0, 0
	asserted := map[int]bool{}
	retired := map[int]bool{}
	for step := 0; step < steps; step++ {
		if observe != nil {
			observe(asserted, retired)
		}
		switch op := sched.Intn(12); {
		case op == 0:
			// Grow: the same fresh candidate arrives on both sessions.
			pc, okA := growthPair(pruned.Network(), &prCursor)
			ec, okB := growthPair(exhaustive.Network(), &exCursor)
			if okA != okB || pc != ec {
				t.Fatalf("step %d: growth pair diverged: %v/%v vs %v/%v", step, pc, okA, ec, okB)
			}
			if !okA {
				continue
			}
			if err := pruned.AddCandidates([]schemanet.Correspondence{pc}); err != nil {
				t.Fatalf("step %d: pruned AddCandidates: %v", step, err)
			}
			if err := exhaustive.AddCandidates([]schemanet.Correspondence{ec}); err != nil {
				t.Fatalf("step %d: exhaustive AddCandidates: %v", step, err)
			}
		case op == 1:
			// Retire a deterministic live, unasserted candidate (if any).
			nc := pruned.Network().NumCandidates()
			c := sched.Intn(nc)
			if asserted[c] || retired[c] {
				continue
			}
			if err := pruned.RetireCandidate(c); err != nil {
				t.Fatalf("step %d: pruned RetireCandidate(%d): %v", step, c, err)
			}
			if err := exhaustive.RetireCandidate(c); err != nil {
				t.Fatalf("step %d: exhaustive RetireCandidate(%d): %v", step, c, err)
			}
			retired[c] = true
		default:
			pc, pok := pruned.Suggest()
			ec, eok := exhaustive.Suggest()
			if pc != ec || pok != eok {
				t.Fatalf("step %d: pruned suggests (%d,%v), exhaustive (%d,%v)", step, pc, pok, ec, eok)
			}
			if !pok {
				steps = step // drained: finish with the probability sweep
				break
			}
			approve := truth.ContainsCorrespondence(pruned.Network().Candidate(pc))
			if err := pruned.Assert(pc, approve); err != nil {
				t.Fatalf("step %d: pruned Assert(%d): %v", step, pc, err)
			}
			if err := exhaustive.Assert(ec, approve); err != nil {
				t.Fatalf("step %d: exhaustive Assert(%d): %v", step, ec, err)
			}
			asserted[pc] = true
		}
	}
	nc := pruned.Network().NumCandidates()
	for c := 0; c < nc; c++ {
		if retired[c] {
			continue
		}
		if pp, ep := mustProb(t, pruned, c), mustProb(t, exhaustive, c); pp != ep {
			t.Fatalf("p(%d): pruned %v != exhaustive %v", c, pp, ep)
		}
	}
}

func topkOptions(exhaustive bool, workers int) *schemanet.Options {
	o := schemanet.Options{Seed: 7, Samples: 150, Inference: "sampled", Workers: workers}
	if exhaustive {
		return schemanet.WithExhaustiveRank(o)
	}
	return &o
}

// lowTopkCap is the lowered co-count-matrix cap of the differential
// runs: below the largest uncertain-member counts of the fixtures'
// components (30–36 at C=240, 14–24 at C=160), so those components
// start on the exhaustive route and cross under the cap as assertions
// resolve them.
const lowTopkCap = 12

// forEachTopkCap runs f at the production cap, which every fixture
// component stays under, and at lowTopkCap.
func forEachTopkCap(t *testing.T, f func(t *testing.T, lowered bool)) {
	t.Run("cap=default", func(t *testing.T) { f(t, false) })
	t.Run("cap=low", func(t *testing.T) {
		schemanet.SetTopkMatrixCap(t, lowTopkCap)
		f(t, true)
	})
}

// TestSuggestPrunedMatchesExhaustivePlain: the plain Session surface.
// At the lowered cap it also checks that the run really crosses the
// cap: some component is ranked above it, and later every uncertain
// component fits under it.
func TestSuggestPrunedMatchesExhaustivePlain(t *testing.T) {
	forEachTopkCap(t, func(t *testing.T, lowered bool) {
		d := benchMultiComponentDataset(t, 240, 4)
		pr, err := schemanet.NewSession(d.Network, topkOptions(false, 0))
		if err != nil {
			t.Fatal(err)
		}
		ex, err := schemanet.NewSession(d.Network, topkOptions(true, 0))
		if err != nil {
			t.Fatal(err)
		}
		var above, crossed bool
		observe := func(asserted, retired map[int]bool) {
			largest := 0
			for _, n := range uncertainPerComponent(t, pr, asserted, retired) {
				largest = max(largest, n)
			}
			switch {
			case largest > lowTopkCap:
				above = true
			case largest > 0 && above:
				crossed = true
			}
		}
		if !lowered {
			observe = nil
		}
		driveDifferential(t, pr, ex, d.GroundTruth, 160, 3, observe)
		if lowered && !crossed {
			t.Fatalf("no component crossed the cap of %d (ranked above it: %v)", lowTopkCap, above)
		}
	})
}

// uncertainPerComponent counts each component's uncertain, unasserted,
// live members — the count the ranker compares with the matrix cap.
func uncertainPerComponent(t *testing.T, s *schemanet.Session, asserted, retired map[int]bool) []int {
	t.Helper()
	counts := make([]int, s.Components())
	for c := 0; c < s.Network().NumCandidates(); c++ {
		if asserted[c] || retired[c] {
			continue
		}
		if p := mustProb(t, s, c); p > 0 && p < 1 {
			k, err := s.ComponentOf(c)
			if err != nil {
				t.Fatal(err)
			}
			counts[k]++
		}
	}
	return counts
}

// TestSuggestPrunedMatchesExhaustiveConcurrent: the concurrent surface,
// where lazy ranking composes with coalesced snapshot publication and
// the entropy-ordered component skip.
func TestSuggestPrunedMatchesExhaustiveConcurrent(t *testing.T) {
	forEachTopkCap(t, func(t *testing.T, _ bool) {
		d := benchMultiComponentDataset(t, 240, 4)
		pr, err := schemanet.NewSession(d.Network, topkOptions(false, 4))
		if err != nil {
			t.Fatal(err)
		}
		ex, err := schemanet.NewSession(d.Network, topkOptions(true, 4))
		if err != nil {
			t.Fatal(err)
		}
		driveDifferential(t, pr, ex, d.GroundTruth, 160, 11, nil)
		if ph, eh := pr.Uncertainty(), ex.Uncertainty(); ph != eh {
			t.Fatalf("H: pruned %v != exhaustive %v", ph, eh)
		}
	})
}

// TestSuggestPrunedMatchesExhaustiveDurable: the durable surface — the
// WAL-backed session delegates serving to a Session, so the
// lazy path must survive the record/replay plumbing too.
func TestSuggestPrunedMatchesExhaustiveDurable(t *testing.T) {
	forEachTopkCap(t, func(t *testing.T, _ bool) {
		d := benchMultiComponentDataset(t, 160, 4)
		open := func(name string, exhaustive bool) *schemanet.DurableSession {
			st, err := schemanet.OpenStore(name, d.Network, &schemanet.StoreOptions{
				Session: topkOptions(exhaustive, 2), FS: wal.NewMemFS(),
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { st.Close() })
			ds, err := st.Session("diff")
			if err != nil {
				t.Fatal(err)
			}
			return ds
		}
		pr := open("pruned", false)
		ex := open("exhaustive", true)
		driveDifferential(t, pr, ex, d.GroundTruth, 120, 19, nil)
	})
}

// TestConcurrentPrunedContention hammers a pruned session with
// concurrent suggesters, asserters on disjoint component schedules,
// and probability/uncertainty readers — the `-race -cpu 4` contention
// coverage for the intra-component parallel re-rank plus coalesced
// publication. Correctness of the values is covered by the
// differential tests above; this test is about the interleavings.
func TestConcurrentPrunedContention(t *testing.T) {
	d := benchMultiComponentDataset(t, 240, 4)
	cs, err := schemanet.NewSession(d.Network, topkOptions(false, 4))
	if err != nil {
		t.Fatal(err)
	}
	serial, err := schemanet.NewSession(d.Network, topkOptions(false, 4))
	if err != nil {
		t.Fatal(err)
	}
	groups := disjointSchedule(t, serial, d.Network, d.GroundTruth, func(c int) bool { return c%2 == 0 })

	var wg sync.WaitGroup
	var errMu sync.Mutex
	var firstErr error
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	for _, as := range groups {
		wg.Add(1)
		go func(as []schemanet.Assertion) {
			defer wg.Done()
			for i, a := range as {
				if i%5 == 4 {
					// Mix in batches so eager batch publication races the
					// coalesced single-assert path.
					hi := i + 1
					if hi > len(as) {
						hi = len(as)
					}
					if err := cs.AssertBatch(as[i:hi]); err != nil {
						fail(err)
						return
					}
					continue
				}
				if err := cs.Assert(a.Cand, a.Approved); err != nil {
					fail(err)
					return
				}
			}
		}(as)
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, ok := cs.Suggest(); !ok {
					return
				}
				if _, err := cs.Probability(i % d.Network.NumCandidates()); err != nil {
					fail(err)
					return
				}
				_ = cs.Uncertainty()
			}
		}(r)
	}
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	// The session must still serve exact, internally consistent state.
	if _, ok := cs.Suggest(); !ok && cs.Effort() < 1 {
		t.Fatal("suggestions drained before full effort")
	}
}
