package instantiate

import (
	"math"
	"math/rand"
	"testing"

	"schemanet/internal/bitset"
	"schemanet/internal/constraints"
	"schemanet/internal/datagen"
	"schemanet/internal/sampling"
)

// decomposedFixture builds a random multi-component network with
// exhaustive per-component stores (the Exact-PMN configuration) and the
// global exact probabilities.
func decomposedFixture(t *testing.T, seed int64, size int) (
	e *constraints.Engine, parts *constraints.Partition,
	stores []*sampling.Store, masks []*bitset.Set, probs []float64) {

	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	d, err := datagen.SyntheticNetwork(datagen.Scale(datagen.BP(), 0.2),
		datagen.DefaultSyntheticOpts(size), rng)
	if err != nil {
		t.Fatal(err)
	}
	e = constraints.Default(d.Network)
	parts = e.Components()
	if parts.Trivial() {
		t.Skip("generated network has a single component")
	}
	n := d.Network.NumCandidates()
	local := make([]int32, n)
	for k := 0; k < parts.NumComponents(); k++ {
		for j, c := range parts.Members(k) {
			local[c] = int32(j)
		}
	}
	probs = make([]float64, n)
	for k := 0; k < parts.NumComponents(); k++ {
		members := parts.Members(k)
		mask := bitset.FromIndices(n, members...)
		instances, err := sampling.EnumerateWithin(e, nil, nil, mask, 0)
		if err != nil {
			t.Fatal(err)
		}
		st := sampling.NewComponentStore(n, 1<<30, members, local)
		for _, inst := range instances {
			st.Add(inst)
		}
		st.MarkComplete()
		st.ProbabilitiesInto(probs)
		stores = append(stores, st)
		masks = append(masks, mask)
	}
	return e, parts, stores, masks, probs
}

// TestHeuristicDecomposedMatchesExactOptimum: with complete
// per-component stores, the per-component greedy pickup finds each
// component's Δ-minimal (likelihood-maximal) instance, and because the
// objective factorizes the merged result attains the global optimum
// computed by the exhaustive Exact solver — equal repair distance and
// equal likelihood, on several seeded random networks.
func TestHeuristicDecomposedMatchesExactOptimum(t *testing.T) {
	for _, seed := range []int64{61, 62, 63} {
		e, _, stores, masks, probs := decomposedFixture(t, seed, 36)
		full := e.FullInstance()
		cfg := DefaultConfig()
		cfg.Iterations = 40

		got := HeuristicDecomposed(e, stores, masks, probs, nil, nil, cfg, -1,
			rand.New(rand.NewSource(seed+100)))
		want, err := Exact(e, probs, nil, nil, cfg.UseLikelihood, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !e.Consistent(got) {
			t.Fatalf("seed %d: decomposed result inconsistent", seed)
		}
		if !e.Maximal(got, nil) {
			t.Fatalf("seed %d: decomposed result not maximal", seed)
		}
		dGot, dWant := got.SymmetricDiffCount(full), want.SymmetricDiffCount(full)
		if dGot != dWant {
			t.Fatalf("seed %d: decomposed Δ = %d, exact optimum Δ = %d", seed, dGot, dWant)
		}
		lGot, lWant := logLikelihood(got, probs), logLikelihood(want, probs)
		if math.Abs(lGot-lWant) > 1e-9 {
			t.Fatalf("seed %d: decomposed log u = %v, exact optimum %v", seed, lGot, lWant)
		}
	}
}

// TestHeuristicDecomposedRespectsFeedback: per-component searches must
// honor the global feedback — approved candidates present, disapproved
// absent — and stay consistent.
func TestHeuristicDecomposedRespectsFeedback(t *testing.T) {
	e, parts, stores, masks, probs := decomposedFixture(t, 71, 36)
	n := e.Network().NumCandidates()
	// Approve one candidate of component 0, disapprove one of the last
	// component (view-maintaining the stores as the PMN would).
	app := parts.Members(0)[0]
	dis := parts.Members(parts.NumComponents() - 1)[0]
	approved := bitset.FromIndices(n, app)
	disapproved := bitset.FromIndices(n, dis)
	stores[0].ApplyAssertion(app, true)
	stores[len(stores)-1].ApplyAssertion(dis, false)

	got := HeuristicDecomposed(e, stores, masks, probs, approved, disapproved,
		DefaultConfig(), -1, rand.New(rand.NewSource(72)))
	if !got.Has(app) {
		t.Fatal("approved candidate missing from decomposed instantiation")
	}
	if got.Has(dis) {
		t.Fatal("disapproved candidate present in decomposed instantiation")
	}
	if !e.Consistent(got) {
		t.Fatal("decomposed instantiation inconsistent")
	}
}

// TestHeuristicDecomposedSingleComponentDelegates: one whole-network
// component marked as such keeps the full search budget, so it is
// exactly the monolithic Heuristic — same result, same rng consumption.
// Checked on the video network and on a synthetic network large enough
// that an unmarked component's 4m+16 cap cuts the local search short
// (the unmarked run must leave the rng elsewhere).
func TestHeuristicDecomposedSingleComponentDelegates(t *testing.T) {
	video, _ := buildVideoNet(t)
	d, err := datagen.SyntheticNetwork(datagen.Scale(datagen.BP(), 0.2),
		datagen.DefaultSyntheticOpts(36), rand.New(rand.NewSource(61)))
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range []*constraints.Engine{video, constraints.Default(d.Network)} {
		s := sampling.NewSampler(e, sampling.DefaultConfig(), rand.New(rand.NewSource(5)))
		store := s.Sample(nil, nil, 100)
		probs := store.Probabilities()
		cfg := DefaultConfig()
		cfg.Iterations = 8*e.Network().NumCandidates() + 64
		whole := []*bitset.Set{e.FullInstance()}
		rngA, rngB, rngC := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
		a := Heuristic(e, store, probs, nil, nil, cfg, rngA)
		b := HeuristicDecomposed(e, []*sampling.Store{store}, whole, probs, nil, nil, cfg, 0, rngB)
		if !a.Equal(b) {
			t.Fatalf("network %d: single-component HeuristicDecomposed %v != Heuristic %v", i, b, a)
		}
		posA := rngA.Int63()
		if posB := rngB.Int63(); posA != posB {
			t.Fatalf("network %d: HeuristicDecomposed consumed the rng differently from Heuristic", i)
		}
		HeuristicDecomposed(e, []*sampling.Store{store}, whole, probs, nil, nil, cfg, -1, rngC)
		if posC := rngC.Int63(); i == 1 && posC == posA {
			t.Fatalf("network %d: the capped search consumed the rng like the full one; the cap never engaged", i)
		}
	}
}
