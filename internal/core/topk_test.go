package core

import (
	"math/rand"
	"testing"

	"schemanet/internal/constraints"
	"schemanet/internal/datagen"
	"schemanet/internal/schema"
)

// topkTestPMNs builds two PMNs over the same synthetic network with
// identical seeds — one on the lazy bound-pruned ranking path, one on
// the exhaustive reference route — so any divergence between them is a
// pruning bug, not noise.
func topkTestPMNs(t testing.TB, seed int64, mutate func(*Config)) (pruned, exhaustive *PMN, d *schema.Dataset) {
	t.Helper()
	ds, err := datagen.SyntheticNetwork(datagen.MultiComp(), datagen.SyntheticOpts{
		TargetCount: 160, Precision: 0.67, ConflictBias: 0.3, StrictCount: true,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Samples = 200
	if mutate != nil {
		mutate(&cfg)
	}
	exCfg := cfg
	exCfg.ExhaustiveRank = true
	pruned = MustNew(constraints.Default(ds.Network), cfg, rand.New(rand.NewSource(seed+1)))
	exhaustive = MustNew(constraints.Default(ds.Network), exCfg, rand.New(rand.NewSource(seed+1)))
	return pruned, exhaustive, ds
}

// exhaustiveTies reproduces the legacy InfoGainStrategy scan: the
// maximal gain over the uncertain unasserted candidates and its full
// ascending tie set, straight from the exhaustive gain vector.
func exhaustiveTies(p *PMN) ([]int, float64) {
	gains := p.InformationGains()
	best := -1.0
	var ties []int
	for _, c := range uncertainUnasserted(p) {
		switch g := gains[c]; {
		case g > best:
			best = g
			ties = append(ties[:0], c)
		case g == best:
			ties = append(ties, c)
		}
	}
	if best < 0 {
		return nil, -1
	}
	return ties, best
}

func sameTies(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// uncertainCounts returns each component's uncertain, unasserted
// member count — the count computeTopGains compares with the cap.
func uncertainCounts(p *PMN) []int {
	out := make([]int, len(p.comps))
	for _, c := range uncertainUnasserted(p) {
		out[p.compOf[c]]++
	}
	return out
}

// TestTopGainTiesMatchesExhaustive drives identical assertion schedules
// through a pruned and an exhaustive PMN and checks after every step
// that the lazy evaluator returns bit-identical tie sets and gains —
// the lazy ranker's exactness guarantee at the core layer. At the end the
// pruned PMN's on-demand full gain vector must also match bitwise. It
// runs at the production cap and at a cap of 3, below the fixtures'
// larger components (up to 12 uncertain members), where it also checks
// that some component is ranked above the cap and later below it.
func TestTopGainTiesMatchesExhaustive(t *testing.T) {
	oldCap := TopkMatrixCap
	defer func() { TopkMatrixCap = oldCap }()
	for _, matrixCap := range []int{oldCap, 3} {
		TopkMatrixCap = matrixCap
		crossed := false
		for _, seed := range []int64{3, 11, 27} {
			pr, ex, d := topkTestPMNs(t, seed, nil)
			schedRng := rand.New(rand.NewSource(seed * 7))
			wasAbove := make([]bool, len(pr.comps))
			for step := 0; ; step++ {
				for k, n := range uncertainCounts(pr) {
					if n > matrixCap {
						wasAbove[k] = true
					} else if n > 0 && wasAbove[k] {
						crossed = true
					}
				}
				gotTies, gotBest := pr.TopGainTies()
				wantTies, wantBest := exhaustiveTies(ex)
				if gotBest != wantBest || !sameTies(gotTies, wantTies) {
					t.Fatalf("cap %d seed %d step %d: pruned (ties=%v gain=%v) != exhaustive (ties=%v gain=%v)",
						matrixCap, seed, step, gotTies, gotBest, wantTies, wantBest)
				}
				if len(wantTies) == 0 {
					break
				}
				// Assert a tie member (sometimes the head, sometimes a random
				// one) so the schedule exercises re-ranking of the hot
				// component and drift-bound reuse on the rest.
				c := wantTies[schedRng.Intn(len(wantTies))]
				approve := d.GroundTruth.ContainsCorrespondence(d.Network.Candidate(c))
				if err := pr.Assert(c, approve); err != nil {
					t.Fatal(err)
				}
				if err := ex.Assert(c, approve); err != nil {
					t.Fatal(err)
				}
			}
			prGains, exGains := pr.InformationGains(), ex.InformationGains()
			for c := range exGains {
				if prGains[c] != exGains[c] {
					t.Fatalf("cap %d seed %d: final gain vector diverges at %d: %v != %v",
						matrixCap, seed, c, prGains[c], exGains[c])
				}
			}
		}
		if matrixCap < oldCap && !crossed {
			t.Fatalf("cap %d: no component was ranked both above and below the cap", matrixCap)
		}
	}
}

// TestEnsureComponentGainsWorkersIdentical: the exhaustive pass shards
// a component's members across workers; every component's gains must
// be bit-identical at Workers 1 and 4, on a fresh PMN and after each
// assertion. rankParallelMin is lowered so the small components shard
// too.
func TestEnsureComponentGainsWorkersIdentical(t *testing.T) {
	oldMin := rankParallelMin
	rankParallelMin = 2
	defer func() { rankParallelMin = oldMin }()

	serial, _, d := topkTestPMNs(t, 9, func(c *Config) { c.Workers = 1 })
	par, _, _ := topkTestPMNs(t, 9, func(c *Config) { c.Workers = 4 })
	sharded := false
	for step := 0; step < 64; step++ {
		for k := range serial.comps {
			serial.EnsureComponentGains(k)
			par.EnsureComponentGains(k)
			sharded = sharded || len(par.comps[k].rankScratch) > 1
		}
		for c := range serial.gains {
			if serial.gains[c] != par.gains[c] {
				t.Fatalf("step %d cand %d: workers=1 gain %v, workers=4 gain %v",
					step, c, serial.gains[c], par.gains[c])
			}
		}
		u := uncertainUnasserted(serial)
		if len(u) == 0 {
			break
		}
		c := u[step%len(u)]
		approve := d.GroundTruth.ContainsCorrespondence(d.Network.Candidate(c))
		if err := serial.Assert(c, approve); err != nil {
			t.Fatal(err)
		}
		if err := par.Assert(c, approve); err != nil {
			t.Fatal(err)
		}
	}
	if !sharded {
		t.Fatal("no component was ranked by more than one worker")
	}
}

// TestTopGainsSerialParallelIdentical lowers the parallel threshold so
// even small components shard across workers and checks the sharded
// evaluation returns exactly the serial block kernel's results —
// per-candidate arithmetic must not depend on worker count or
// schedule.
func TestTopGainsSerialParallelIdentical(t *testing.T) {
	oldMin := rankParallelMin
	rankParallelMin = 2
	defer func() { rankParallelMin = oldMin }()

	serial, _, d := topkTestPMNs(t, 5, func(c *Config) { c.Workers = 1 })
	par, _, _ := topkTestPMNs(t, 5, func(c *Config) { c.Workers = 4 })
	for step := 0; step < 64; step++ {
		sTies, sBest := serial.TopGainTies()
		pTies, pBest := par.TopGainTies()
		if sBest != pBest || !sameTies(sTies, pTies) {
			t.Fatalf("step %d: serial (ties=%v gain=%v) != parallel (ties=%v gain=%v)",
				step, sTies, sBest, pTies, pBest)
		}
		if len(sTies) == 0 {
			break
		}
		c := sTies[0]
		approve := d.GroundTruth.ContainsCorrespondence(d.Network.Candidate(c))
		if err := serial.Assert(c, approve); err != nil {
			t.Fatal(err)
		}
		if err := par.Assert(c, approve); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDeltaBoundSound checks the chained drift bound the lazy evaluator
// prunes with: whenever a member holds a valid evaluation record, its
// current exhaustive gain must not exceed the recorded gain plus the
// accumulated drift (beyond the strict pruning margin) — otherwise a
// bound-pruned candidate could secretly hold the maximum.
func TestDeltaBoundSound(t *testing.T) {
	pr, ex, d := topkTestPMNs(t, 13, nil)
	for step := 0; step < 80; step++ {
		ties, _ := pr.TopGainTies()
		if len(ties) == 0 {
			break
		}
		exGains := ex.InformationGains()
		for k, cp := range pr.comps {
			if cp.evalGain == nil {
				continue
			}
			check := func(j, c int) {
				db, ok := cp.deltaBound(j)
				if !ok {
					return
				}
				if pc := pr.probs[c]; pc <= 0 || pc >= 1 || cp.isAsserted(c) {
					return
				}
				if g := exGains[c]; g > db+PruneMargin(g) {
					t.Fatalf("step %d comp %d cand %d: gain %v exceeds delta bound %v",
						step, k, c, g, db)
				}
			}
			if cp.members == nil {
				for c := range pr.probs {
					check(c, c)
				}
			} else {
				for j, c := range cp.members {
					check(j, c)
				}
			}
		}
		c := ties[0]
		approve := d.GroundTruth.ContainsCorrespondence(d.Network.Candidate(c))
		if err := pr.Assert(c, approve); err != nil {
			t.Fatal(err)
		}
		if err := ex.Assert(c, approve); err != nil {
			t.Fatal(err)
		}
	}
}

// TestInfoGainStrategyPrunedTrajectory runs the full strategy (with its
// tie-break rng) on both ranking paths and demands identical suggestion
// sequences — the rng draw counts must line up exactly, not just the
// winners.
func TestInfoGainStrategyPrunedTrajectory(t *testing.T) {
	pr, ex, d := topkTestPMNs(t, 17, nil)
	prRng := rand.New(rand.NewSource(99))
	exRng := rand.New(rand.NewSource(99))
	strat := InfoGainStrategy{}
	for step := 0; step < 200; step++ {
		pc, pok := strat.Next(pr, prRng)
		ec, eok := strat.Next(ex, exRng)
		if pc != ec || pok != eok {
			t.Fatalf("step %d: pruned suggests (%d,%v), exhaustive (%d,%v)", step, pc, pok, ec, eok)
		}
		if !pok {
			break
		}
		approve := d.GroundTruth.ContainsCorrespondence(d.Network.Candidate(pc))
		if err := pr.Assert(pc, approve); err != nil {
			t.Fatal(err)
		}
		if err := ex.Assert(pc, approve); err != nil {
			t.Fatal(err)
		}
	}
}
