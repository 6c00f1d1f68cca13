package sampling

import (
	"math/rand"
	"testing"

	"schemanet/internal/bitset"
	"schemanet/internal/constraints"
	"schemanet/internal/datagen"
)

// TestApplyAssertionClearsCompletenessWhenEmptied is the regression
// test for the silent-dead-end bug: a store marked complete (e.g. after
// two under-n_min samplings) and then emptied by an assertion must
// revoke completeness so NeedsResample turns true again. Before the
// fix, an approval that wiped the store left Complete() true — all
// probabilities 0, entropy 0, NeedsResample false — and the session
// looked "done" with no way to recover.
func TestApplyAssertionClearsCompletenessWhenEmptied(t *testing.T) {
	st := NewStore(4, 100)
	st.Add(bitset.FromIndices(4, 0, 1))
	st.Add(bitset.FromIndices(4, 0, 2))
	st.MarkComplete()
	if st.NeedsResample() {
		t.Fatal("complete store must not need resampling")
	}

	// Approving candidate 3 keeps no instance: the store empties.
	st.ApplyAssertion(3, true)
	if st.Size() != 0 {
		t.Fatalf("store size = %d, want 0", st.Size())
	}
	if st.Complete() {
		t.Fatal("emptied store must revoke completeness")
	}
	if !st.NeedsResample() {
		t.Fatal("emptied store must need resampling")
	}
}

// TestApplyAssertionKeepsCompletenessOnApproval: the complement case —
// an approval that keeps a non-empty instance subset preserves
// completeness (filtering a complete Ω* by an assertion yields the
// complete Ω* of the restricted space).
func TestApplyAssertionKeepsCompletenessOnApproval(t *testing.T) {
	st := NewStore(4, 100)
	st.Add(bitset.FromIndices(4, 0, 1))
	st.Add(bitset.FromIndices(4, 0, 2))
	st.MarkComplete()
	st.ApplyAssertion(0, true)
	if st.Size() != 2 {
		t.Fatalf("store size = %d, want 2", st.Size())
	}
	if !st.Complete() {
		t.Fatal("non-emptying approval must preserve completeness")
	}
}

// componentFixture builds a random network, partitions it, and returns
// the engine plus the partition (skipping the trial when the partition
// is trivial).
func componentFixture(t *testing.T, seed int64, size int) (*constraints.Engine, *constraints.Partition) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	d, err := datagen.SyntheticNetwork(datagen.Scale(datagen.BP(), 0.3),
		datagen.DefaultSyntheticOpts(size), rng)
	if err != nil {
		t.Fatal(err)
	}
	e := constraints.Default(d.Network)
	return e, e.Components()
}

// TestComponentStoreMatchesFullStore: sampling one component into a
// component store and the same instances into a full-universe store
// must agree on probabilities, partitions, and co-occurrence counts of
// the component's members.
func TestComponentStoreMatchesFullStore(t *testing.T) {
	e, parts := componentFixture(t, 31, 60)
	if parts.Trivial() {
		t.Skip("trivial partition; component-store comparison is vacuous")
	}
	n := e.Network().NumCandidates()
	local := make([]int32, n)
	for k := 0; k < parts.NumComponents(); k++ {
		for j, c := range parts.Members(k) {
			local[c] = int32(j)
		}
	}
	rng := rand.New(rand.NewSource(32))
	smp := NewSampler(e, DefaultConfig(), rng)
	for k := 0; k < parts.NumComponents(); k++ {
		members := parts.Members(k)
		cst := NewComponentStore(n, 50, members, local)
		smp.SampleInto(cst, nil, nil, 80)

		full := NewStore(n, 50)
		cst.ForEachInstance(func(inst *bitset.Set) bool {
			full.Add(inst)
			return true
		})
		if cst.Size() != full.Size() {
			t.Fatalf("component %d: sizes differ %d vs %d", k, cst.Size(), full.Size())
		}
		if cst.TrackedCount() != len(members) {
			t.Fatalf("component %d: tracked %d, want %d", k, cst.TrackedCount(), len(members))
		}
		for j, c := range members {
			if cst.GlobalID(j) != c {
				t.Fatalf("component %d: GlobalID(%d) = %d, want %d", k, j, cst.GlobalID(j), c)
			}
			if got, want := cst.Probability(c), full.Probability(c); got != want {
				t.Fatalf("component %d: p(%d) = %v, want %v", k, c, got, want)
			}
			w1, wo1 := cst.Partition(c)
			w2, wo2 := full.Partition(c)
			if w1 != w2 || wo1 != wo2 {
				t.Fatalf("component %d: Partition(%d) = (%d,%d), want (%d,%d)", k, c, w1, wo1, w2, wo2)
			}
		}
		// Column-indexed co-occurrence counts agree with the reference
		// CondCounts of the same store.
		for _, c := range members {
			with, without, nWith, nWithout := cst.CoCounts(c)
			refWith, totWith := cst.CondCounts(c, true)
			refWithout, totWithout := cst.CondCounts(c, false)
			if nWith != totWith || nWithout != totWithout {
				t.Fatalf("component %d: totals (%d,%d) vs reference (%d,%d)", k, nWith, nWithout, totWith, totWithout)
			}
			for j := range with {
				if with[j] != refWith[j] || without[j] != refWithout[j] {
					t.Fatalf("component %d: CoCounts(%d) col %d = (%d,%d), reference (%d,%d)",
						k, c, j, with[j], without[j], refWith[j], refWithout[j])
				}
			}
		}
		// Probabilities of untracked candidates read 0.
		for c := 0; c < n; c++ {
			if !cst.Tracks(c) && cst.Probability(c) != 0 {
				t.Fatalf("component %d: untracked p(%d) = %v, want 0", k, c, cst.Probability(c))
			}
		}
	}
}

// TestComponentStoreRejectsForeignInstance: adding an instance holding
// a candidate outside the member set must panic — it would silently
// corrupt another component's columns otherwise.
func TestComponentStoreRejectsForeignInstance(t *testing.T) {
	local := []int32{0, 1, 0, 1}
	st := NewComponentStore(4, 10, []int{0, 1}, local)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for foreign instance")
		}
	}()
	st.Add(bitset.FromIndices(4, 0, 2))
}

// TestSampleWithinStaysInComponent: every instance the restricted walk
// emits is a subset of the component, maximal relative to it, and
// consistent.
func TestSampleWithinStaysInComponent(t *testing.T) {
	e, parts := componentFixture(t, 41, 60)
	if parts.Trivial() {
		t.Skip("trivial partition")
	}
	n := e.Network().NumCandidates()
	local := make([]int32, n)
	for k := 0; k < parts.NumComponents(); k++ {
		for j, c := range parts.Members(k) {
			local[c] = int32(j)
		}
	}
	rng := rand.New(rand.NewSource(42))
	smp := NewSampler(e, DefaultConfig(), rng)
	for k := 0; k < parts.NumComponents(); k++ {
		members := parts.Members(k)
		mask := bitset.FromIndices(n, members...)
		notMask := bitset.New(n)
		notMask.SetAll()
		notMask.DifferenceWith(mask)
		st := NewComponentStore(n, 30, members, local)
		smp.SampleInto(st, nil, nil, 50)
		if st.Size() == 0 {
			t.Fatalf("component %d: no instances sampled", k)
		}
		st.ForEachInstance(func(inst *bitset.Set) bool {
			if !mask.ContainsAll(inst) {
				t.Fatalf("component %d: instance %v leaves the component", k, inst)
			}
			if !e.Consistent(inst) {
				t.Fatalf("component %d: inconsistent instance %v", k, inst)
			}
			if !e.Maximal(inst, notMask) {
				t.Fatalf("component %d: instance %v not maximal within the component", k, inst)
			}
			return true
		})
	}
}

// TestEnumerateWithinFactorizes: the per-component enumerations of a
// multi-component network multiply out to the global enumeration — the
// instance-space product structure the decomposed PMN relies on — and
// per-component probabilities equal the global exact probabilities.
func TestEnumerateWithinFactorizes(t *testing.T) {
	e, parts := componentFixture(t, 51, 40)
	if parts.Trivial() {
		t.Skip("trivial partition")
	}
	n := e.Network().NumCandidates()
	global, err := EnumerateAll(e, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	product := 1
	globalProbs, _, err := ExactProbabilities(e, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < parts.NumComponents(); k++ {
		mask := bitset.FromIndices(n, parts.Members(k)...)
		sub, err := EnumerateWithin(e, nil, nil, mask, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(sub) == 0 {
			t.Fatalf("component %d: no instances", k)
		}
		product *= len(sub)
		// Per-component frequency equals the global exact probability.
		for _, c := range parts.Members(k) {
			cnt := 0
			for _, inst := range sub {
				if inst.Has(c) {
					cnt++
				}
			}
			got := float64(cnt) / float64(len(sub))
			if want := globalProbs[c]; got != want {
				t.Fatalf("component %d: p(%d) = %v, global exact %v", k, c, got, want)
			}
		}
	}
	if product != len(global) {
		t.Fatalf("Π |Ω_k| = %d, global |Ω| = %d", product, len(global))
	}
}
