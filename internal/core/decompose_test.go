package core

import (
	"math"
	"math/rand"
	"testing"

	"schemanet/internal/bitset"
	"schemanet/internal/constraints"
	"schemanet/internal/datagen"
	"schemanet/internal/sampling"
	"schemanet/internal/schema"
)

// buildTwoTriangles is the two-disconnected-triangles network (ten
// candidates, two constraint-connected components of five).
func buildTwoTriangles(t testing.TB) (*constraints.Engine, map[string]int) {
	t.Helper()
	b := schema.NewBuilder()
	idx := map[string]int{}
	for g := 0; g < 2; g++ {
		p := string(rune('A' + g))
		s1 := b.AddSchema(p+"EoverI", "productionDate")
		s2 := b.AddSchema(p+"BBC", "date")
		s3 := b.AddSchema(p+"DVDizzy", "releaseDate", "screenDate")
		b.Connect(s1, s2)
		b.Connect(s2, s3)
		b.Connect(s1, s3)
		base := schema.AttrID(g * 4)
		b.AddCorrespondence(base+0, base+1, 0.9)
		b.AddCorrespondence(base+1, base+2, 0.8)
		b.AddCorrespondence(base+0, base+2, 0.7)
		b.AddCorrespondence(base+1, base+3, 0.6)
		b.AddCorrespondence(base+0, base+3, 0.5)
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 2; g++ {
		p := string(rune('A' + g))
		base := schema.AttrID(g * 4)
		idx[p+"c1"] = net.CandidateIndex(base+0, base+1)
		idx[p+"c2"] = net.CandidateIndex(base+1, base+2)
		idx[p+"c3"] = net.CandidateIndex(base+0, base+2)
		idx[p+"c4"] = net.CandidateIndex(base+1, base+3)
		idx[p+"c5"] = net.CandidateIndex(base+0, base+3)
	}
	return constraints.Default(net), idx
}

// TestAssertTouchesOnlyOwnComponent: asserting a candidate of one
// component must leave the other component's store object, sample set,
// and probabilities untouched — the O(component) cost contract.
func TestAssertTouchesOnlyOwnComponent(t *testing.T) {
	e, idx := buildTwoTriangles(t)
	p := exactPMN(t, e, 1)
	if p.NumComponents() != 2 {
		t.Fatalf("components = %d, want 2", p.NumComponents())
	}
	otherK := p.ComponentOf(idx["Bc1"])
	otherStore := p.ComponentStore(otherK)
	otherSize := otherStore.Size()

	if err := p.Assert(idx["Ac2"], true); err != nil {
		t.Fatal(err)
	}
	if p.ComponentStore(otherK) != otherStore || otherStore.Size() != otherSize {
		t.Fatal("assertion in component A rebuilt component B's store")
	}
	for _, name := range []string{"Bc1", "Bc2", "Bc3", "Bc4", "Bc5"} {
		if got := p.Probability(idx[name]); math.Abs(got-0.5) > 1e-9 {
			t.Errorf("p(%s) = %v, want 0.5 (untouched component)", name, got)
		}
	}
	// The touched component behaves exactly like the single-triangle case.
	if got := p.Probability(idx["Ac2"]); got != 1 {
		t.Errorf("p(Ac2) = %v, want 1", got)
	}
	if got := p.Probability(idx["Ac4"]); got != 0 {
		t.Errorf("p(Ac4) = %v, want 0", got)
	}
	// H = 3 uncertain in A (at ½) + 5 uncertain in B (at ½).
	if got := p.Entropy(); math.Abs(got-8) > 1e-9 {
		t.Errorf("H = %v, want 8", got)
	}
}

// TestInformationGainComponentLocal: IG must be computable per
// component and match the definition H − H(C|c) computed over the whole
// network.
func TestInformationGainComponentLocal(t *testing.T) {
	e, idx := buildTwoTriangles(t)
	p := exactPMN(t, e, 1)
	for name, c := range idx {
		ig := p.InformationGain(c)
		def := p.Entropy() - p.ConditionalEntropy(c)
		if math.Abs(ig-def) > 1e-9 {
			t.Errorf("IG(%s) = %v, definition gives %v", name, ig, def)
		}
	}
	// The two components are copies: IGs must mirror.
	for _, base := range []string{"c1", "c2", "c3", "c4", "c5"} {
		a, b := p.InformationGain(idx["A"+base]), p.InformationGain(idx["B"+base])
		if math.Abs(a-b) > 1e-9 {
			t.Errorf("IG(A%s) = %v, IG(B%s) = %v; identical components must mirror", base, a, base, b)
		}
	}
}

// TestPMNRecoversFromEmptiedCompleteStore is the PMN half of the
// dead-end regression: a sampled (non-exact) PMN whose store completed
// (all 4 triangle instances < n_min) and is then emptied by assertions
// must refill instead of freezing with NeedsResample() == false.
func TestPMNRecoversFromEmptiedCompleteStore(t *testing.T) {
	e, idx := buildVideoNet(t)
	cfg := DefaultConfig()
	cfg.Samples = 100
	p := MustNew(e, cfg, rand.New(rand.NewSource(3)))
	if !p.Store().Complete() {
		t.Fatal("precondition: store must have completed")
	}
	// c3 and c5 conflict (both map productionDate into DVDizzy), so
	// approving both empties the store: no sampled instance contains
	// both.
	if err := p.Assert(idx["c3"], true); err != nil {
		t.Fatal(err)
	}
	if err := p.Assert(idx["c5"], true); err != nil {
		t.Fatal(err)
	}
	if p.Resamples() == 0 {
		t.Fatal("emptied complete store must trigger a refill")
	}
	if p.Store().Size() == 0 && !p.Store().Complete() {
		t.Fatal("store left empty and incomplete: the session would be a dead end")
	}
	// Approved candidates stay certain either way.
	if p.Probability(idx["c3"]) != 1 || p.Probability(idx["c5"]) != 1 {
		t.Fatal("approved candidates must stay at probability 1")
	}
	// Further assertions keep working.
	if err := p.Assert(idx["c1"], false); err != nil {
		t.Fatal(err)
	}
}

// TestAssertBatchMatchesSequentialExact: under Exact, batch-applying a
// feedback history yields the same probabilities as asserting one by
// one.
func TestAssertBatchMatchesSequentialExact(t *testing.T) {
	e, idx := buildTwoTriangles(t)
	history := []Assertion{
		{Cand: idx["Ac2"], Approved: true},
		{Cand: idx["Bc1"], Approved: false},
		{Cand: idx["Ac5"], Approved: false},
		{Cand: idx["Bc4"], Approved: true},
	}
	seq := exactPMN(t, e, 1)
	for _, a := range history {
		if err := seq.Assert(a.Cand, a.Approved); err != nil {
			t.Fatal(err)
		}
	}
	batch := exactPMN(t, e, 1)
	if err := batch.AssertBatch(history); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < e.Network().NumCandidates(); c++ {
		if s, b := seq.Probability(c), batch.Probability(c); s != b {
			t.Fatalf("p(%d): sequential %v, batch %v", c, s, b)
		}
	}
	if s, b := seq.Entropy(), batch.Entropy(); math.Abs(s-b) > 1e-12 {
		t.Fatalf("H: sequential %v, batch %v", s, b)
	}
}

// TestAssertBatchAtMostOneRefillPerComponent: the whole point of the
// batch path — a history of many entries triggers at most one
// resampling round per touched component.
func TestAssertBatchAtMostOneRefillPerComponent(t *testing.T) {
	e, idx := buildTwoTriangles(t)
	cfg := DefaultConfig()
	cfg.Samples = 100
	p := MustNew(e, cfg, rand.New(rand.NewSource(5)))
	// Disapprovals clear completeness, so every entry would refill on
	// the sequential path; both components are touched twice.
	history := []Assertion{
		{Cand: idx["Ac4"], Approved: false},
		{Cand: idx["Bc4"], Approved: false},
		{Cand: idx["Ac5"], Approved: false},
		{Cand: idx["Bc5"], Approved: false},
	}
	if err := p.AssertBatch(history); err != nil {
		t.Fatal(err)
	}
	if got := p.Resamples(); got > 2 {
		t.Fatalf("batch of 4 over 2 components did %d refills, want ≤ 2 (one per touched component)", got)
	}
	// Sequential reference: strictly more refills.
	q := MustNew(e, cfg, rand.New(rand.NewSource(5)))
	for _, a := range history {
		if err := q.Assert(a.Cand, a.Approved); err != nil {
			t.Fatal(err)
		}
	}
	if q.Resamples() <= p.Resamples() {
		t.Fatalf("sequential refills (%d) not above batch refills (%d); test premise broken",
			q.Resamples(), p.Resamples())
	}
}

// TestAssertBatchValidation: invalid batches are rejected atomically.
func TestAssertBatchValidation(t *testing.T) {
	e, idx := buildTwoTriangles(t)
	p := exactPMN(t, e, 1)
	if err := p.Assert(idx["Ac1"], true); err != nil {
		t.Fatal(err)
	}
	h0 := p.Entropy()
	cases := map[string][]Assertion{
		"already asserted": {{Cand: idx["Ac2"], Approved: true}, {Cand: idx["Ac1"], Approved: true}},
		"duplicate":        {{Cand: idx["Bc1"], Approved: true}, {Cand: idx["Bc1"], Approved: false}},
		"out of range":     {{Cand: 99, Approved: true}},
	}
	for name, batch := range cases {
		if err := p.AssertBatch(batch); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
	if p.Feedback().Count() != 1 {
		t.Fatalf("rejected batches mutated feedback: count = %d, want 1", p.Feedback().Count())
	}
	if p.Entropy() != h0 {
		t.Fatalf("rejected batches changed entropy: %v -> %v", h0, p.Entropy())
	}
}

// TestGainsCacheMatchesColdPass: after assertions touch one component,
// the cached ranking (which only re-ranks the touched component) must
// be bit-identical to a fully invalidated cold pass.
func TestGainsCacheMatchesColdPass(t *testing.T) {
	e, idx := buildTwoTriangles(t)
	p := exactPMN(t, e, 1)
	_ = p.InformationGains() // warm the cache
	if err := p.Assert(idx["Ac2"], true); err != nil {
		t.Fatal(err)
	}
	cached := p.InformationGains()
	p.InvalidateGains()
	cold := p.InformationGains()
	for c := range cached {
		if cached[c] != cold[c] {
			t.Fatalf("gains[%d]: cached %v != cold %v", c, cached[c], cold[c])
		}
	}
	// And after an assertion in the other component too.
	if err := p.Assert(idx["Bc4"], false); err != nil {
		t.Fatal(err)
	}
	cached = p.InformationGains()
	p.InvalidateGains()
	cold = p.InformationGains()
	for c := range cached {
		if cached[c] != cold[c] {
			t.Fatalf("after B assert, gains[%d]: cached %v != cold %v", c, cached[c], cold[c])
		}
	}
}

// TestDecomposedSampledAgreesWithExactOnRandomNet: on a generated
// multi-component network whose components are small enough to
// complete, the decomposed sampled probabilities equal the exact
// probabilities (Equation 1).
func TestDecomposedSampledAgreesWithExactOnRandomNet(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	d, err := datagen.SyntheticNetwork(datagen.Scale(datagen.BP(), 0.2),
		datagen.DefaultSyntheticOpts(40), rng)
	if err != nil {
		t.Fatal(err)
	}
	e := constraints.Default(d.Network)
	if e.Components().Trivial() {
		t.Skip("generated network has one component")
	}
	exact := MustNew(e, Config{Inference: InferExact, Samples: 100, Sampler: DefaultConfig().Sampler}, rand.New(rand.NewSource(1)))
	cfg := DefaultConfig()
	cfg.Samples = 600
	cfg.Sampler.NMin = 400
	sampled := MustNew(e, cfg, rand.New(rand.NewSource(2)))
	for c := 0; c < d.Network.NumCandidates(); c++ {
		k := sampled.ComponentOf(c)
		if !sampled.ComponentStore(k).Complete() {
			continue // component too large to complete; estimate, not exact
		}
		if math.Abs(exact.Probability(c)-sampled.Probability(c)) > 1e-9 {
			t.Errorf("p(%d): exact %v, decomposed complete-store %v", c,
				exact.Probability(c), sampled.Probability(c))
		}
	}
}

// TestWholeComponentKeepsSingleSpaceStream: the one component New builds
// over a one-component network draws the paper's single-space stream —
// Config.Sampler as given, with no component-scaled StagnationLimit, on
// the rng passed to New — so its store and the rng position after New
// match a plain sampler refilling a whole-universe store. The video
// network saturates within a few emissions, so a stagnation limit would
// end its rounds early and leave the rng elsewhere.
func TestWholeComponentKeepsSingleSpaceStream(t *testing.T) {
	e, _ := buildVideoNet(t)
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(1))
	p := MustNew(e, cfg, rng)

	n := e.Network().NumCandidates()
	refRng := rand.New(rand.NewSource(1))
	smp := sampling.NewSampler(e.Fork(), cfg.Sampler, refRng)
	ref := sampling.NewStore(n, smp.Config().NMin)
	for round := 0; round < 2 && ref.NeedsResample(); round++ {
		smp.SampleInto(ref, bitset.New(n), bitset.New(n), cfg.Samples)
	}

	st := p.ComponentStore(0)
	if st.Size() != ref.Size() {
		t.Fatalf("store holds %d instances, single-space reference %d", st.Size(), ref.Size())
	}
	for i := 0; i < st.Size(); i++ {
		if !st.Instance(i).Equal(ref.Instance(i)) {
			t.Fatalf("instance %d = %v, reference %v", i, st.Instance(i), ref.Instance(i))
		}
	}
	if got, want := rng.Int63(), refRng.Int63(); got != want {
		t.Fatalf("rng after New draws %d, reference %d: the sampling stream diverged", got, want)
	}
}

// TestSharedRngComponent: only the whole-network component of the
// trivial-partition and Monolithic paths samples from the rng passed to
// New; a topology change that carries it keeps it — also when the
// universe grows by candidates that form components of their own — and
// a rebuild gives it a derived stream.
func TestSharedRngComponent(t *testing.T) {
	e, _ := buildVideoNet(t)
	p := MustNew(e, DefaultConfig(), rand.New(rand.NewSource(1)))
	if k := p.SharedRngComponent(); k != 0 {
		t.Fatalf("trivial partition: SharedRngComponent = %d, want 0", k)
	}
	net := e.Network()
	oldN := net.NumCandidates()
	if _, err := net.AppendSchema("Late", "x"); err != nil {
		t.Fatal(err)
	}
	e.Grow(oldN)
	if _, err := p.TopologyChanged(oldN, -1); err != nil {
		t.Fatal(err)
	}
	if k := p.SharedRngComponent(); k != 0 {
		t.Fatalf("after a schema arrival: SharedRngComponent = %d, want the carried component 0", k)
	}
	late := schema.AttrID(net.NumAttributes() - 1)
	if _, err := net.AppendCandidates([]schema.Correspondence{{A: 0, B: late, Confidence: 0.5}}); err != nil {
		t.Fatal(err)
	}
	e.Grow(oldN)
	if _, err := p.TopologyChanged(oldN, -1); err != nil {
		t.Fatal(err)
	}
	if k := p.SharedRngComponent(); k != -1 {
		t.Fatalf("after a candidate arrival: SharedRngComponent = %d, want -1 (rebuilt)", k)
	}

	// Two new schemas and one candidate between them: the candidate is
	// a component of its own, so the whole-network component is carried
	// with its store, stream, and probabilities.
	e, _ = buildVideoNet(t)
	p = MustNew(e, DefaultConfig(), rand.New(rand.NewSource(1)))
	before := p.Probabilities()
	net = e.Network()
	grow := func(op func() error) map[int]int {
		t.Helper()
		oldN := net.NumCandidates()
		if err := op(); err != nil {
			t.Fatal(err)
		}
		e.Grow(oldN)
		carried, err := p.TopologyChanged(oldN, -1)
		if err != nil {
			t.Fatal(err)
		}
		return carried
	}
	for _, name := range []string{"LateA", "LateB"} {
		grow(func() error { _, err := net.AppendSchema(name, "x"); return err })
	}
	a, b := schema.AttrID(net.NumAttributes()-2), schema.AttrID(net.NumAttributes()-1)
	carried := grow(func() error {
		_, err := net.AppendCandidates([]schema.Correspondence{{A: a, B: b, Confidence: 0.5}})
		return err
	})
	if k := p.SharedRngComponent(); k != 0 || p.NumComponents() != 2 || carried[0] != 0 {
		t.Fatalf("after an isolated candidate arrival: SharedRngComponent = %d, %d components, carried %v; want the carried component 0 of 2",
			k, p.NumComponents(), carried)
	}
	for c, want := range before {
		if got := p.Probability(c); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("p(%d) = %v after growth, want %v", c, got, want)
		}
	}

	e, _ = buildTwoTriangles(t)
	if k := MustNew(e, DefaultConfig(), rand.New(rand.NewSource(1))).SharedRngComponent(); k != -1 {
		t.Fatalf("decomposed: SharedRngComponent = %d, want -1", k)
	}
	cfg := DefaultConfig()
	cfg.Monolithic = true
	if k := MustNew(e, cfg, rand.New(rand.NewSource(1))).SharedRngComponent(); k != 0 {
		t.Fatalf("monolithic: SharedRngComponent = %d, want 0", k)
	}
}
