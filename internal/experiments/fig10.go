package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"schemanet/internal/chart"
	"schemanet/internal/core"
	"schemanet/internal/eval"
	"schemanet/internal/instantiate"
	"schemanet/internal/schema"
)

// instantiateAt reconciles the dataset with the strategy, instantiating
// a matching (Algorithm 2) at each requested assertion count; it returns
// precision and recall per grid point.
func instantiateAt(d *schema.Dataset, strat core.Strategy, steps []int,
	pmnCfg core.Config, instCfg instantiate.Config, seed int64) (prec, rec []float64) {

	rng := rand.New(rand.NewSource(seed))
	e := engineFor(d.Network)
	pmn := core.MustNew(e, pmnCfg, rng)
	o := oracleFor(d)

	snapshot := func() (float64, float64) {
		inst := instantiate.HeuristicDecomposed(e, pmn.ComponentStores(), pmn.ComponentMasks(),
			pmn.Probabilities(),
			pmn.Feedback().Approved(), pmn.Feedback().Disapproved(), instCfg, pmn.SharedRngComponent(), rng)
		return eval.PrecisionRecall(d.Network, inst.Members(), d.GroundTruth)
	}

	done := 0
	for _, target := range steps {
		for done < target {
			c, ok := strat.Next(pmn, rng)
			if !ok {
				break
			}
			approve := o.Assert(d.Network.Candidate(c))
			if err := pmn.Assert(c, approve); err != nil {
				panic(err)
			}
			done++
		}
		p, r := snapshot()
		prec = append(prec, p)
		rec = append(rec, r)
	}
	return prec, rec
}

// Fig10Row is one effort grid point of the instantiation study.
type Fig10Row struct {
	EffortPercent float64
	Precision     map[string]float64
	Recall        map[string]float64
}

// Fig10Result reproduces Figure 10: precision and recall of the
// instantiated matching H under the Random and Heuristic ordering
// strategies, for effort budgets 0–15%. Expected shape: Heuristic
// dominates on both metrics (paper: ~+0.12 precision, ~+0.08 recall on
// average), with both equal at 0% effort.
type Fig10Result struct {
	Rows       []Fig10Row
	Runs       int
	Candidates int
	AvgGain    map[string]float64 // mean heuristic−random gap: "precision", "recall"
}

// Name implements Result.
func (*Fig10Result) Name() string { return "fig10" }

// Render implements Result.
func (r *Fig10Result) Render(w io.Writer) error {
	renderHeader(w, "Figure 10: instantiation under ordering strategies")
	fmt.Fprintf(w, "runs: %d, candidates: %d\n", r.Runs, r.Candidates)
	tw := newTable(w)
	fmt.Fprintln(tw, "Effort (%)\tPrec random\tPrec heuristic\tRec random\tRec heuristic")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%.1f\t%.3f\t%.3f\t%.3f\t%.3f\n",
			row.EffortPercent,
			row.Precision["random"], row.Precision["info-gain"],
			row.Recall["random"], row.Recall["info-gain"])
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "mean heuristic-over-random gain: precision %+.3f, recall %+.3f\n",
		r.AvgGain["precision"], r.AvgGain["recall"])
	ch := chart.New("", "user effort (%)", "precision of H")
	for _, name := range []string{"random", "info-gain"} {
		xs := make([]float64, 0, len(r.Rows))
		ys := make([]float64, 0, len(r.Rows))
		for _, row := range r.Rows {
			xs = append(xs, row.EffortPercent)
			ys = append(ys, row.Precision[name])
		}
		ch.Add(name, xs, ys)
	}
	return ch.Render(w)
}

// fig10Grid returns the effort grid (percent) and matching step counts.
func fig10Grid(n int, quick bool) (pcts []float64, steps []int) {
	step := 2.5
	if quick {
		step = 5
	}
	for pct := 0.0; pct <= 15.0+1e-9; pct += step {
		pcts = append(pcts, pct)
		steps = append(steps, int(pct/100*float64(n)))
	}
	return pcts, steps
}

// Fig10 runs the ordering-strategy instantiation comparison.
func Fig10(cfg Config) (Result, error) {
	d, err := bpDataset(cfg)
	if err != nil {
		return nil, err
	}
	runs := 20
	instCfg := instantiate.DefaultConfig()
	if cfg.Quick {
		runs = 3
		instCfg.Iterations = 60
	}
	if cfg.Runs > 0 {
		runs = cfg.Runs
	}
	n := d.Network.NumCandidates()
	pcts, steps := fig10Grid(n, cfg.Quick)
	strategies := []core.Strategy{core.RandomStrategy{}, core.InfoGainStrategy{}}

	sums := map[string][2][]float64{}
	for _, s := range strategies {
		precs := make([][]float64, runs)
		recs := make([][]float64, runs)
		parallelRuns(runs, func(run int) {
			precs[run], recs[run] = instantiateAt(d, s, steps, pmnConfig(cfg), instCfg, cfg.Seed+int64(run*17+3))
		})
		sp := make([]float64, len(steps))
		sr := make([]float64, len(steps))
		for run := 0; run < runs; run++ {
			for i := range steps {
				sp[i] += precs[run][i]
				sr[i] += recs[run][i]
			}
		}
		for i := range steps {
			sp[i] /= float64(runs)
			sr[i] /= float64(runs)
		}
		sums[s.Name()] = [2][]float64{sp, sr}
	}

	res := &Fig10Result{Runs: runs, Candidates: n, AvgGain: map[string]float64{}}
	gp, gr := 0.0, 0.0
	for i, pct := range pcts {
		row := Fig10Row{
			EffortPercent: pct,
			Precision:     map[string]float64{},
			Recall:        map[string]float64{},
		}
		//lint:sorted writes into maps keyed by the range key; no cross-key state
		for name, pr := range sums {
			row.Precision[name] = pr[0][i]
			row.Recall[name] = pr[1][i]
		}
		gp += row.Precision["info-gain"] - row.Precision["random"]
		gr += row.Recall["info-gain"] - row.Recall["random"]
		res.Rows = append(res.Rows, row)
	}
	res.AvgGain["precision"] = gp / float64(len(pcts))
	res.AvgGain["recall"] = gr / float64(len(pcts))
	return res, nil
}
