package core

import (
	"math"
	"slices"
	"sync"
)

// BinaryEntropy returns −p·log₂p − (1−p)·log₂(1−p), the entropy of one
// correspondence-selection variable; 0 at p ∈ {0, 1}.
func BinaryEntropy(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	return -p*math.Log2(p) - (1-p)*math.Log2(1-p)
}

// EntropyOf computes the network uncertainty H(C, P) of Equation 3: the
// sum of binary entropies over all candidates. Certain candidates
// (p ∈ {0, 1}) contribute nothing, matching the paper's observation that
// H(C, P) = H({c | 0 < p_c < 1}, P).
func EntropyOf(probs []float64) float64 {
	h := 0.0
	for _, p := range probs {
		h += BinaryEntropy(p)
	}
	return h
}

// igScratch holds the per-worker buffers of a gain computation: the
// co-occurrence counts of one candidate and memo tables of partition
// entropies. The per-pass tab and the hoisted asserted-candidate mask
// (global-indexed) serve the single-candidate queries
// (condEntropyComp); the ranking passes use etab.
type igScratch struct {
	with     []int
	without  []int
	tab      []float64 // tab[k] memoizes BinaryEntropy(k/total); -1 = unset
	asserted []bool    // asserted[d] = feedback.IsAsserted(d), per-pass constant

	// etab[total][cnt] is a persistent memo of BinaryEntropy(cnt/total)
	// — a pure function of the integer pair, so entries never
	// invalidate and survive across passes, assertions, and refills.
	// The per-pass tab above amortizes log2 within one partition of a
	// single-candidate query; etab amortizes it across the ranking
	// passes' many partitions, whose (cnt, total) pairs repeat heavily
	// from candidate to candidate and step to step. Scratches are
	// per-worker, so memo fills never race.
	etab [][]float64
}

// etabRow returns (allocating on first use) the memo row of one
// partition size, so per-partition loops hoist the outer-table probes.
func (s *igScratch) etabRow(total int) []float64 {
	if total >= len(s.etab) {
		grown := make([][]float64, total+1)
		copy(grown, s.etab)
		s.etab = grown
	}
	row := s.etab[total]
	if row == nil {
		row = make([]float64, total+1)
		for i := range row {
			row[i] = -1
		}
		s.etab[total] = row
	}
	return row
}

func (p *PMN) newScratch(asserted []bool) *igScratch {
	return &igScratch{
		with:     make([]int, p.maxComp),
		without:  make([]int, p.maxComp),
		asserted: asserted,
	}
}

// workerScratches returns the component's first n per-worker ranking
// scratches, allocating missing ones. Both ranking passes (the
// exhaustive EnsureComponentGains and the lazy top-k evaluator) use
// them, so they also share the persistent entropy memo.
func (p *PMN) workerScratches(cp *component, n int) []*igScratch {
	for len(cp.rankScratch) < n {
		cp.rankScratch = append(cp.rankScratch, p.newScratch(nil))
	}
	return cp.rankScratch[:n]
}

// assertedMask hoists feedback.IsAsserted out of the ranking inner loop
// (two bounds-checked bitset probes per candidate pair otherwise).
func (p *PMN) assertedMask() []bool {
	out := make([]bool, len(p.probs))
	for _, a := range p.feedback.History() {
		out[a.Cand] = true
	}
	return out
}

// EnsureComponentGains re-ranks component k's cached information gains
// if an assertion staleness-marked them: the exhaustive pass, one
// columnar count pass per uncertain member. The counts and entropy sums
// run over the uncertain, unasserted columns only: every other term of
// the partition entropies is exactly 0.0 (an asserted member is
// skipped, a certain member's count is 0 or the partition total), and
// x + 0.0 == x, so each gain is bit-identical to InformationGain's sum
// over every column at a fraction of the work. From rankParallelMin
// uncertain members on, the members are strided across Config.Workers
// goroutines with per-worker scratch the component keeps; each gain is
// a pure function of component state written to its own slot, so the
// result does not depend on the worker count or schedule. The pass
// reads only component-local state, so calls for different components
// may run concurrently; calls for the same component must be
// serialized by the caller.
func (p *PMN) EnsureComponentGains(k int) {
	if !p.gainsStale[k] {
		return
	}
	cp := p.comps[k]
	pending, cols := cp.rankPending[:0], cp.rankCols[:0]
	for j, c := range cp.members {
		p.gains[c] = 0
		if pc := p.probs[c]; pc > 0 && pc < 1 {
			pending = append(pending, c)
			if !cp.isAsserted(c) {
				cols = append(cols, j)
			}
		}
	}
	cp.rankPending, cp.rankCols = pending, cols

	workers := min(p.rankWorkers(), len(pending))
	if len(pending) < rankParallelMin {
		workers = 1
	}
	scr := p.workerScratches(cp, workers)
	st := cp.store()
	nu := len(cols)
	rank := func(w int) {
		s := scr[w]
		for i := w; i < len(pending); i += workers {
			c := pending[i]
			pc := p.probs[c]
			nW, nWo := st.CoCountsSubsetInto(c, cols, s.with, s.without)
			hPlus := entropySum(s.with[:nu], nW, s)
			hMinus := entropySum(s.without[:nu], nWo, s)
			if ig := cp.entropy - (pc*hPlus + (1-pc)*hMinus); ig > 0 {
				p.gains[c] = ig
			}
		}
	}
	if workers <= 1 {
		rank(0)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rank(w)
			}(w)
		}
		wg.Wait()
	}
	p.gainsStale[k] = false
}

// condEntropyComp computes the component-local part of H(C | c, P) of
// Equation 4 — the expected uncertainty of c's component after the
// expert asserts c — from one batched columnar count pass over the
// component's store (Store.CoCountsInto): the component's sample set is
// partitioned on membership of c, exactly the update view maintenance
// would perform for either answer. Candidates of other components are
// independent of c, so their entropy terms are unchanged by the
// conditioning and never enter this pass — the factorization that makes
// the ranking O(component²) instead of O(network²) per candidate.
func (p *PMN) condEntropyComp(comp *component, c int, s *igScratch) float64 {
	pc := p.probs[c]
	st := comp.store()
	m := st.TrackedCount()
	nWith, nWithout := st.CoCountsInto(c, s.with, s.without)
	hPlus := p.partitionEntropyOf(comp, s.with[:m], nWith, s)
	hMinus := p.partitionEntropyOf(comp, s.without[:m], nWithout, s)
	return pc*hPlus + (1-pc)*hMinus
}

// partitionEntropyOf computes H over one sub-population of a
// component's samples from its per-candidate membership counts
// (column-indexed). Within one partition the per-candidate entropy
// depends only on the count k ∈ [0, total], so values are memoized in
// the scratch table: co-occurrence counts repeat heavily and log2
// dominates the pass otherwise.
func (p *PMN) partitionEntropyOf(comp *component, counts []int, total int, s *igScratch) float64 {
	if total == 0 {
		return 0
	}
	// A component with few members probes at most that many distinct
	// counts: resetting a memo table of total+1 entries would cost more
	// than the log2 calls it saves, so small components compute
	// directly.
	memo := len(counts) > 64
	var tab []float64
	if memo {
		if cap(s.tab) < total+1 {
			s.tab = make([]float64, total+1)
		}
		tab = s.tab[:total+1]
		for i := range tab {
			tab[i] = -1
		}
	}
	h := 0.0
	for j, cnt := range counts {
		if s.asserted[comp.members[j]] {
			continue // asserted candidates stay certain in P±
		}
		if !memo {
			h += BinaryEntropy(float64(cnt) / float64(total))
			continue
		}
		e := tab[cnt]
		if e < 0 {
			e = BinaryEntropy(float64(cnt) / float64(total))
			tab[cnt] = e
		}
		h += e
	}
	return h
}

// entropySum adds BinaryEntropy(cnt/total) over one partition's counts
// through the scratch's persistent memo.
func entropySum(counts []int, total int, s *igScratch) float64 {
	if total == 0 {
		return 0
	}
	row := s.etabRow(total)
	h := 0.0
	for _, cnt := range counts {
		v := row[cnt]
		if v < 0 {
			v = BinaryEntropy(float64(cnt) / float64(total))
			row[cnt] = v
		}
		h += v
	}
	return h
}

// ConditionalEntropy returns H(C | c, P) of Equation 4: the
// component-local conditional term plus the unchanged entropy of every
// other component.
func (p *PMN) ConditionalEntropy(c int) float64 {
	pc := p.probs[c]
	if pc <= 0 || pc >= 1 {
		// Certain candidates: the assertion outcome is already known and
		// changes nothing.
		return p.Entropy()
	}
	comp := p.comps[p.compOf[c]]
	rest := p.Entropy() - comp.entropy
	return rest + p.condEntropyComp(comp, c, p.newScratch(p.assertedMask()))
}

// InformationGain returns IG(c) of Equation 5: the expected uncertainty
// reduction from asserting c. It is zero for certain candidates.
// Because conditioning on c leaves every other component untouched, the
// gain reduces to the component-local difference H_k − H_k(·|c).
func (p *PMN) InformationGain(c int) float64 {
	pc := p.probs[c]
	if pc <= 0 || pc >= 1 {
		return 0
	}
	comp := p.comps[p.compOf[c]]
	ig := comp.entropy - p.condEntropyComp(comp, c, p.newScratch(p.assertedMask()))
	if ig < 0 {
		// Sampling noise can produce slightly negative estimates; clamp
		// so ordering degenerates gracefully to "no expected gain".
		return 0
	}
	return ig
}

// InformationGains returns IG(c) for every candidate. Information gain
// is component-local, so the PMN caches the gain vector and an
// assertion staleness-marks only its own component: each call re-ranks
// just the stale components (EnsureComponentGains) — O(touched
// component), not O(network), per pay-as-you-go step.
func (p *PMN) InformationGains() []float64 {
	for k := range p.comps {
		p.EnsureComponentGains(k)
	}
	return slices.Clone(p.gains)
}
