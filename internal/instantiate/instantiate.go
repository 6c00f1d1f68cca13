// Package instantiate implements §V of the paper: deriving a single
// trusted matching (an approximation of the selective matching) from a
// probabilistic matching network at any time. The instantiation problem
// — minimal repair distance Δ(I, C), then maximal likelihood u(I) — is
// NP-complete (Theorem 1), so the package provides both the two-step
// meta-heuristic of Algorithm 2 (greedy pickup among samples, then
// randomized local search with roulette-wheel selection and a tabu
// queue) and an exact solver for small networks used to validate it.
package instantiate

import (
	"math"
	"math/rand"

	"schemanet/internal/bitset"
	"schemanet/internal/constraints"
	"schemanet/internal/sampling"
)

// Config parameterizes Algorithm 2.
type Config struct {
	// Iterations is the local-search bound k.
	Iterations int
	// TabuSize is the fixed size of the tabu queue; 0 disables tabu
	// (an ablation switch).
	TabuSize int
	// UseLikelihood enables the maximal-likelihood tie-break between
	// instances of equal repair distance (§V-A condition ii; Figure 11
	// compares instantiation with and without it).
	UseLikelihood bool
}

// DefaultConfig returns the configuration used in the experiments.
func DefaultConfig() Config {
	return Config{Iterations: 200, TabuSize: 7, UseLikelihood: true}
}

// logLikelihood computes log u(I) = Σ_{c∈I} log p_c, clamping zero
// probabilities (a sampled instance never contains a certainly-absent
// correspondence, but local-search instances can).
func logLikelihood(inst *bitset.Set, probs []float64) float64 {
	const floor = 1e-12
	ll := 0.0
	inst.ForEach(func(c int) bool {
		p := probs[c]
		if p < floor {
			p = floor
		}
		ll += math.Log(p)
		return true
	})
	return ll
}

// better reports whether candidate instance b beats incumbent a under
// the lexicographic objective: smaller repair distance first, then —
// when likelihood is enabled — larger likelihood.
func better(a, b *bitset.Set, full *bitset.Set, probs []float64, useLikelihood bool) bool {
	da, db := a.SymmetricDiffCount(full), b.SymmetricDiffCount(full)
	if db != da {
		return db < da
	}
	if !useLikelihood {
		return false
	}
	return logLikelihood(b, probs) > logLikelihood(a, probs)
}

// rouletteWheel picks one candidate with probability proportional to its
// probability estimate (fitness-proportionate selection). When all
// weights are zero it falls back to uniform choice. Returns -1 for an
// empty pool.
func rouletteWheel(pool []int, probs []float64, rng *rand.Rand) int {
	if len(pool) == 0 {
		return -1
	}
	total := 0.0
	for _, c := range pool {
		total += probs[c]
	}
	if total <= 0 {
		return pool[rng.Intn(len(pool))]
	}
	r := rng.Float64() * total
	for _, c := range pool {
		r -= probs[c]
		if r <= 0 {
			return c
		}
	}
	return pool[len(pool)-1]
}

// tabuQueue is the fixed-size forbidden list of Algorithm 2. Membership
// is a bitset so the local search can subtract the whole queue from its
// candidate pool with one word-wise pass.
type tabuQueue struct {
	items []int
	set   *bitset.Set
	size  int
}

func newTabuQueue(size, n int) *tabuQueue {
	return &tabuQueue{set: bitset.New(n), size: size}
}

func (q *tabuQueue) add(c int) {
	if q.size <= 0 {
		return
	}
	if q.set.Has(c) {
		return
	}
	q.items = append(q.items, c)
	q.set.Add(c)
	if len(q.items) > q.size {
		old := q.items[0]
		q.items = q.items[1:]
		q.set.Remove(old)
	}
}

func (q *tabuQueue) has(c int) bool { return q.set.Has(c) }

// Heuristic runs Algorithm 2 over the whole network and returns the
// best matching instance found: consistent, respecting the feedback,
// with near-minimal repair distance and near-maximal likelihood. probs
// are the current correspondence probabilities; approved/disapproved may
// be nil; store may be nil (no greedy pickup).
func Heuristic(e *constraints.Engine, store *sampling.Store, probs []float64,
	approved, disapproved *bitset.Set, cfg Config, rng *rand.Rand) *bitset.Set {
	all := e.FullInstance()
	return heuristicWithin(e, store, probs, approved, disapproved, all, all.Members(), cfg, rng)
}

// HeuristicDecomposed runs Algorithm 2 independently on every
// constraint-connected component and unions the per-component winners.
// stores[k] holds component k's samples and masks[k] its member set.
// Both the repair distance Δ(I, C) and the likelihood u(I) are
// sums/products over components, so the union of per-component optima
// is a global optimum of the same objective — searching each
// component's much smaller instance space instead of the product space.
// The search budget (cfg.Iterations) is scaled down per component (a
// component of m candidates saturates in O(m) moves), so total work
// does not multiply with component count. Component whole (-1 for none)
// is the one a PMN built to span the whole network (see
// core.PMN.SharedRngComponent): it keeps the full budget, as Heuristic
// does.
func HeuristicDecomposed(e *constraints.Engine, stores []*sampling.Store, masks []*bitset.Set,
	probs []float64, approved, disapproved *bitset.Set, cfg Config, whole int, rng *rand.Rand) *bitset.Set {

	out := e.NewInstance()
	for k, store := range stores {
		subCfg := cfg
		if m := store.TrackedCount(); k != whole && subCfg.Iterations > 4*m+16 {
			subCfg.Iterations = 4*m + 16
		}
		sub := heuristicWithin(e, store, probs, approved, disapproved, masks[k], store.TrackedMembers(), subCfg, rng)
		out.UnionWith(sub)
	}
	return out
}

// heuristicWithin is Algorithm 2 restricted to the candidates of
// `within` (members is the same set as an ascending list): the greedy
// pickup reads the component's store, the local search only proposes
// component candidates, repairs protect approved ∩ within, and
// saturation excludes everything outside the component. The
// repair-distance reference is the component's candidate set.
func heuristicWithin(e *constraints.Engine, store *sampling.Store, probs []float64,
	approved, disapproved, within *bitset.Set, members []int, cfg Config, rng *rand.Rand) *bitset.Set {

	n := e.Network().NumCandidates()
	// apr = F+ ∩ within seeds and protects; excluded = ¬within ∪ F− ∪
	// retired bounds repairs and saturation.
	apr, excluded := sampling.FeedbackWithin(e, approved, disapproved, within, nil, nil)

	// Step 1: greedy pickup among the sampled instances — minimal repair
	// distance, tie-broken by likelihood.
	var best *bitset.Set
	if store != nil {
		store.ForEachInstance(func(inst *bitset.Set) bool {
			if best == nil || better(best, inst, within, probs, cfg.UseLikelihood) {
				best = inst
			}
			return true
		})
	}
	if best == nil {
		// No samples available: start from the approved set, saturated.
		seed := e.NewInstance()
		if apr != nil {
			seed.UnionWith(apr)
		}
		e.MaximizeWithin(seed, excluded, members, rng)
		best = seed
	}
	best = best.Clone()

	// Step 2: randomized local search with tabu. The pool within \ I \
	// excluded \ tabu is built as a mask (word-wise set subtraction) and
	// expanded in ascending order.
	cur := best.Clone()
	tabu := newTabuQueue(cfg.TabuSize, n)
	pool := make([]int, 0, n)
	free := bitset.New(n)
	for i := 0; i < cfg.Iterations; i++ {
		free.CopyFrom(within)
		free.DifferenceWith(cur)
		free.DifferenceWith(tabu.set)
		free.DifferenceWith(excluded)
		pool = pool[:0]
		free.ForEach(func(c int) bool {
			pool = append(pool, c)
			return true
		})
		c := rouletteWheel(pool, probs, rng)
		if c < 0 {
			break
		}
		tabu.add(c)
		e.Repair(cur, c, apr)
		e.MaximizeWithin(cur, excluded, members, rng)
		if better(best, cur, within, probs, cfg.UseLikelihood) {
			best.CopyFrom(cur)
		}
	}
	return best
}

// Exact solves the instantiation problem optimally by enumerating all
// matching instances (exponential; for validating the heuristic on
// small networks). limit caps enumeration as in sampling.EnumerateAll.
func Exact(e *constraints.Engine, probs []float64, approved, disapproved *bitset.Set,
	useLikelihood bool, limit int) (*bitset.Set, error) {

	instances, err := sampling.EnumerateAll(e, approved, disapproved, limit)
	if err != nil {
		return nil, err
	}
	if len(instances) == 0 {
		return e.NewInstance(), nil
	}
	full := e.FullInstance()
	best := instances[0]
	for _, inst := range instances[1:] {
		if better(best, inst, full, probs, useLikelihood) {
			best = inst
		}
	}
	return best.Clone(), nil
}
