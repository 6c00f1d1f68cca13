package sampling

import (
	"math/rand"
	"testing"

	"schemanet/internal/bitset"
)

// randomStores builds a global store and a component store with
// identical random contents, so every kernel can be exercised on both
// column layouts (identity and local-index).
func randomStores(t *testing.T, rng *rand.Rand, n, m, rows int) (global, comp *Store, members []int) {
	t.Helper()
	members = make([]int, 0, m)
	perm := rng.Perm(n)
	for _, c := range perm[:m] {
		members = append(members, c)
	}
	// members must be ascending for a component store's column layout to
	// mirror the PMN's.
	for i := 1; i < len(members); i++ {
		for j := i; j > 0 && members[j] < members[j-1]; j-- {
			members[j], members[j-1] = members[j-1], members[j]
		}
	}
	local := make([]int32, n)
	for j, c := range members {
		local[c] = int32(j)
	}
	global = NewStore(m, rows)
	comp = NewComponentStore(n, rows, members, local)
	for r := 0; r < rows; r++ {
		gInst := bitset.New(m)
		cInst := bitset.New(n)
		for j, c := range members {
			if rng.Intn(2) == 0 {
				gInst.Add(j)
				cInst.Add(c)
			}
		}
		global.Add(gInst)
		comp.Add(cInst)
	}
	return global, comp, members
}

// TestCoCountsSubsetMatchesFull checks the subset kernel against the
// full CoCountsInto pass: for every candidate and a random column
// subset, the subset counts must equal the corresponding entries of
// the full count vectors, and the partition sizes must agree.
func TestCoCountsSubsetMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		n, m, rows := 40, 17, 1+rng.Intn(60)
		global, comp, members := randomStores(t, rng, n, m, rows)

		var subset []int
		for j := 0; j < m; j++ {
			if rng.Intn(3) > 0 {
				subset = append(subset, j)
			}
		}
		fullW, fullWo := make([]int, m), make([]int, m)
		subW, subWo := make([]int, len(subset)), make([]int, len(subset))
		for _, st := range []*Store{global, comp} {
			cands := st.TrackedMembers()
			for _, c := range cands {
				fw, fwo := st.CoCountsInto(c, fullW, fullWo)
				sw, swo := st.CoCountsSubsetInto(c, subset, subW, subWo)
				if fw != sw || fwo != swo {
					t.Fatalf("trial %d cand %d: partition sizes (%d,%d) != (%d,%d)", trial, c, fw, fwo, sw, swo)
				}
				for i, j := range subset {
					if subW[i] != fullW[j] || subWo[i] != fullWo[j] {
						t.Fatalf("trial %d cand %d col %d: subset counts (%d,%d) != full (%d,%d)",
							trial, c, j, subW[i], subWo[i], fullW[j], fullWo[j])
					}
				}
			}
		}
		_ = members
	}
}

// TestCoCountsBlockMatchesSubset checks the batched block kernel
// against per-candidate subset passes: one column sweep serving a whole
// block must produce exactly the per-candidate results.
func TestCoCountsBlockMatchesSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 20; trial++ {
		n, m, rows := 48, 21, 1+rng.Intn(60)
		global, comp, _ := randomStores(t, rng, n, m, rows)

		var subset []int
		for j := 0; j < m; j++ {
			if rng.Intn(4) > 0 {
				subset = append(subset, j)
			}
		}
		for _, st := range []*Store{global, comp} {
			cands := st.TrackedMembers()
			b := 1 + rng.Intn(8)
			if b > len(cands) {
				b = len(cands)
			}
			block := make([]int, 0, b)
			for _, i := range rng.Perm(len(cands))[:b] {
				block = append(block, cands[i])
			}
			bw := make([][]int, b)
			bwo := make([][]int, b)
			for i := range bw {
				bw[i] = make([]int, len(subset))
				bwo[i] = make([]int, len(subset))
			}
			bn, bno := make([]int, b), make([]int, b)
			cols := make([][]uint64, b)
			st.CoCountsBlockInto(block, subset, cols, bw, bwo, bn, bno)

			sw, swo := make([]int, len(subset)), make([]int, len(subset))
			for i, c := range block {
				nW, nWo := st.CoCountsSubsetInto(c, subset, sw, swo)
				if nW != bn[i] || nWo != bno[i] {
					t.Fatalf("trial %d cand %d: block partition sizes (%d,%d) != (%d,%d)",
						trial, c, bn[i], bno[i], nW, nWo)
				}
				for x := range subset {
					if bw[i][x] != sw[x] || bwo[i][x] != swo[x] {
						t.Fatalf("trial %d cand %d col %d: block counts (%d,%d) != subset (%d,%d)",
							trial, c, subset[x], bw[i][x], bwo[i][x], sw[x], swo[x])
					}
				}
			}
		}
	}
}
