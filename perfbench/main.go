// Command perfbench is the end-to-end benchmark of schemanet: one
// pay-as-you-go reconciliation workload per run, driven through the
// public schemanet API by a ground-truth oracle (a closed loop: each
// annotator answers a question only after the previous step returned).
//
//	perfbench --workload bp-full --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it prints the end-to-end metrics (set-up time, step
// latency, throughput, instantiation latency, heap, quality). With
// --trace 1 it alternates untraced and traced rounds of the same seeds,
// checks that both produce the same suggestion sequences, and prints
// per-layer metrics attributed from spans recorded around the calls
// into each layer. The last line of standard output is always one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// The datasets are fixed instances of each workload's profile; --seed
// selects the session seed of every round (round r of seed s runs with
// roundSeed(s, r)), which drives sampling, tie-breaking and
// instantiation. See README.md for the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

// minSetups is how many set-ups a run times at least; rounds that are
// longer than a third of the run are topped up with set-up-only
// repetitions so setup_s is always a median.
const minSetups = 3

type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics of an untraced run, in output order. It
// must match BENCHMARK.json (TestMetricTablesMatchBenchmarkJSON).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"step_p50_ms", "ms"},
	{"step_p90_ms", "ms"},
	{"steps_per_s", "1/s"},
	{"instantiate_ms", "ms"},
	{"peak_heap_mb", "MB"},
	{"h_auc", "ratio"},
	{"f1", "ratio"},
}

// perLayer lists the metrics of a traced run. Layers a workload does
// not exercise report 0.
var perLayer = []metricDef{
	{"matcher.match_ms", "ms"},
	{"matcher.pairs_scored", "count"},
	{"matcher.candidates", "count"},
	{"constraints.compile_ms", "ms"},
	{"constraints.partition_ms", "ms"},
	{"constraints.components", "count"},
	{"constraints.largest_component", "count"},
	{"constraints.violations", "count"},
	{"core.init_ms", "ms"},
	{"core.exact_components_start", "count"},
	{"core.exact_components_end", "count"},
	{"core.suggest_ms_p50", "ms"},
	{"core.suggest_ms_p90", "ms"},
	{"core.suggest_ms_total", "ms"},
	{"core.uncertain_mean", "count"},
	{"core.assert_ms_p50", "ms"},
	{"core.assert_ms_p90", "ms"},
	{"core.assert_ms_total", "ms"},
	{"sampling.emissions", "count"},
	{"sampling.emissions_per_step", "count"},
	{"sampling.refill_steps", "count"},
	{"sampling.refill_ms_total", "ms"},
	{"sampling.us_per_emission", "us"},
	{"instantiate.ms_p50", "ms"},
	{"instantiate.matching_size", "count"},
	{"store.open_ms", "ms"},
	{"store.assert_ms_p50", "ms"},
	{"store.assert_ms_p90", "ms"},
	{"store.suggest_us_p50", "us"},
	{"store.close_ms", "ms"},
	{"store.recover_ms", "ms"},
	{"wal.bytes", "bytes"},
	{"wal.bytes_per_assert", "bytes"},
	{"wal.syncs", "count"},
	{"wal.sync_ms_total", "ms"},
	{"wal.snapshot_bytes", "bytes"},
	{"self_ms.bench", "ms"},
	{"self_ms.matcher", "ms"},
	{"self_ms.session", "ms"},
	{"self_ms.core", "ms"},
	{"self_ms.instantiate", "ms"},
	{"self_ms.store", "ms"},
	{"self_ms.wal", "ms"},
	{"quality.h_ratio_end", "ratio"},
	{"trace.overhead_pct", "%"},
}

// roundResult is what one round of a workload measured. A round is a
// complete unit of work: set-up, the reconciliation loop with its
// checkpoints, and the workload's own checks.
type roundResult struct {
	wall  time.Duration
	setup time.Duration
	steps []time.Duration // Assert + next Suggest, pooled over annotators
	busy  time.Duration   // Σ steps
	// annotators is how many closed loops ran side by side; the round
	// completed annotators·len(steps)/busy assertions per second.
	annotators int
	inst       []time.Duration // Instantiate at the effort checkpoints
	// instMean is each session's mean Instantiate latency over its
	// checkpoints, in ms. Early checkpoints cost several times late ones,
	// so a median over the pooled checkpoints sits on the edge between
	// the two groups and flips between runs.
	instMean []float64
	heap     uint64    // peak live heap at the checkpoints
	hRatios  []float64 // H/H0 at the effort checkpoints
	f1       float64
	digest   uint64
	ops      int
	gates    []string // failed correctness checks
	// layer holds the traced round's per-layer counts and totals.
	layer map[string]float64
}

func (r *roundResult) failf(format string, args ...any) {
	r.gates = append(r.gates, fmt.Sprintf(format, args...))
}

// workload is one benchmark input and the closed loop that drives it.
type workload interface {
	// round runs one round with session seed rs; tr is nil when
	// untraced. An error is an API failure that aborted the round.
	round(rs int64, tr *tracer) (*roundResult, error)
	// setupOnly times one set-up and discards the session.
	setupOnly(rs int64) (time.Duration, error)
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"bp-full", "uaf-half", "multicomp-durable"}

func newWorkload(name, workDir string) (workload, error) {
	switch name {
	case "bp-full":
		// The paper's headline experiment: 100% effort on BP.
		return newPlain("bp", 1, 0)
	case "uaf-half":
		// 25-step sessions keep the component's uncertain members
		// above the 1,024-member co-count matrix cap of the top-k
		// ranking (1,152 at the start, 1,034 or more after 30 steps
		// over twelve seeds, below the cap by step 40 on some), so
		// ranking always runs its streaming path; a run takes four
		// sessions for its 100 steps.
		return newPlain("uaf", 0.5, 25)
	case "multicomp-durable":
		// Two annotators (the host's core count), one session each per
		// round: short rounds give every run several recoveries.
		return newDurable(1024, 2, 1, workDir)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// roundSeed derives the session seed of round r of a run.
func roundSeed(seed int64, r int) int64 { return seed*1_000_003 + int64(r) }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: bp-full, uaf-half or multicomp-durable")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 30, "measurement time per run")
		traceOn = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		workDir = flag.String("work", ".bench_build/work", "directory for the session stores")
		traces  = flag.String("traces", ".bench_build/traces", "directory the traced run writes its spans to")
	)
	flag.Parse()
	if *traceOn != 0 && *traceOn != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	w, err := newWorkload(*name, *workDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	budget := time.Duration(*seconds * float64(time.Second))
	var res *result
	if *traceOn == 1 {
		res = runTraced(w, *name, *seed, budget, *traces)
	} else {
		res = runTimed(w, *seed, budget)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// minSteps is the fewest steps a run measures, so that step_p90_ms has
// at least minTail samples beyond it.
const minSteps = 100

// runRounds runs rounds until minSteps steps are measured and the next
// round would overrun budget; past three budgets it stops short of
// minSteps, so a slowed-down program still ends in bounded time. round
// returns its duration and step count. A round that fails with an API
// error or measures no step ends the run.
func runRounds(budget time.Duration, round func(r int) (time.Duration, int, error)) error {
	start := time.Now()
	steps := 0
	for r := 0; ; r++ {
		d, n, err := round(r)
		if err != nil {
			return err
		}
		if n == 0 {
			return fmt.Errorf("round %d measured no steps", r)
		}
		steps += n
		if elapsed := time.Since(start); elapsed+d > budget && (steps >= minSteps || elapsed > 3*budget) {
			return nil
		}
	}
}

// tally accumulates a run's operation counts and failed checks.
type tally struct {
	attempted, failed int
	gates             []string
}

func (t *tally) add(r *roundResult) {
	t.attempted += r.ops
	if len(r.gates) > 0 {
		t.failed += r.ops
		t.gates = append(t.gates, r.gates...)
	}
}

// abort records an operation that failed with an error.
func (t *tally) abort(err error) {
	t.attempted++
	t.failed++
	t.gates = append(t.gates, err.Error())
}

// result prints the failed checks and assembles the final line. A
// metric that could not be measured (no samples) reads 0.
func (t *tally) result(defs []metricDef, vals map[string]float64) *result {
	for _, g := range t.gates {
		fmt.Println("CHECK FAILED:", g)
	}
	metrics := make(map[string]metricValue, len(defs))
	for _, m := range defs {
		v := vals[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		metrics[m.name] = metricValue{v, m.unit}
	}
	if t.attempted == 0 {
		t.attempted, t.failed = 1, 1
	}
	return &result{Correct: len(t.gates) == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}
}

func runTimed(w workload, seed int64, budget time.Duration) *result {
	var rounds []*roundResult
	var t tally
	err := runRounds(budget, func(r int) (time.Duration, int, error) {
		runtime.GC()
		res, err := w.round(roundSeed(seed, r), nil)
		if err != nil {
			return 0, 0, fmt.Errorf("round %d: %w", r, err)
		}
		fmt.Printf("round %d: seed %d, setup %.3fs, %d steps in %.3fs, heap %.2f MB, digest %016x\n",
			r, roundSeed(seed, r), res.setup.Seconds(), len(res.steps), res.busy.Seconds(), float64(res.heap)/(1<<20), res.digest)
		rounds = append(rounds, res)
		t.add(res)
		return res.wall, len(res.steps), nil
	})
	if err != nil {
		t.abort(err)
	}
	var setups, steps, inst, instMean, heaps, hauc, f1 []float64
	var busy time.Duration
	annotators := 0
	for _, r := range rounds {
		setups = append(setups, r.setup.Seconds())
		steps = append(steps, ms(r.steps)...)
		inst = append(inst, ms(r.inst)...)
		instMean = append(instMean, r.instMean...)
		busy += r.busy
		annotators = r.annotators
		heaps = append(heaps, float64(r.heap)/(1<<20))
		hauc = append(hauc, r.hRatios...)
		f1 = append(f1, r.f1)
	}
	for i := len(rounds); err == nil && len(setups) < minSetups; i++ {
		runtime.GC()
		var d time.Duration
		if d, err = w.setupOnly(roundSeed(seed, i)); err != nil {
			t.abort(fmt.Errorf("set-up %d: %w", i, err))
			break
		}
		setups = append(setups, d.Seconds())
		t.attempted++
	}
	if len(steps) < minSteps {
		t.gates = append(t.gates, fmt.Sprintf("only %d steps measured, want %d", len(steps), minSteps))
	}
	fmt.Println(describeTiming("setup", setups, "s"))
	fmt.Println(describeTiming("step", steps, "ms"))
	fmt.Println(describeTiming("instantiate", inst, "ms"))
	fmt.Printf("rounds: %d\n", len(rounds))
	return t.result(endToEnd, map[string]float64{
		"setup_s":        median(setups),
		"step_p50_ms":    percentile(steps, 50),
		"step_p90_ms":    percentile(steps, 90),
		"steps_per_s":    float64(annotators*len(steps)) / busy.Seconds(),
		"instantiate_ms": median(instMean),
		"peak_heap_mb":   median(heaps),
		"h_auc":          mean(hauc),
		"f1":             mean(f1),
	})
}

func runTraced(w workload, name string, seed int64, budget time.Duration, traceDir string) *result {
	tr := newTracer()
	var plain, traced []*roundResult
	var t tally
	err := runRounds(budget, func(r int) (time.Duration, int, error) {
		start := time.Now()
		rs := roundSeed(seed, r)
		runtime.GC()
		u, err := w.round(rs, nil)
		if err != nil {
			return 0, 0, fmt.Errorf("untraced round %d: %w", r, err)
		}
		runtime.GC()
		v, err := w.round(rs, tr)
		if err != nil {
			return 0, 0, fmt.Errorf("traced round %d: %w", r, err)
		}
		fmt.Printf("round %d: seed %d, digest untraced %016x traced %016x\n", r, rs, u.digest, v.digest)
		if u.digest != v.digest {
			v.failf("round %d: traced suggestion digest %016x differs from untraced %016x", r, v.digest, u.digest)
		}
		plain = append(plain, u)
		traced = append(traced, v)
		t.add(u)
		t.add(v)
		return time.Since(start), len(v.steps), nil
	})
	if err != nil {
		t.abort(err)
	}
	spans := tr.snapshot()
	path, err := writeSpans(traceDir, fmt.Sprintf("%s-seed%d.jsonl", name, seed), spans)
	if err != nil {
		t.abort(err)
	} else {
		fmt.Printf("trace: %d spans in %s\n", len(spans), path)
	}
	if len(traced) == 0 {
		return t.result(perLayer, nil)
	}
	return t.result(perLayer, layerMetrics(spans, plain, traced))
}

// layerMetrics assembles the per-layer metrics: counts from the first
// traced round (they repeat exactly under a seed), timings from the
// spans of every traced round, totals per traced round.
func layerMetrics(spans []span, plain, traced []*roundResult) map[string]float64 {
	vals := make(map[string]float64)
	for k, v := range traced[0].layer {
		vals[k] = v
	}
	n := float64(len(traced))
	med := func(name string) float64 { return median(ms(durations(spans, name, false))) }
	loopMed := func(name string) float64 { return median(ms(durations(spans, name, true))) }
	loopP90 := func(name string) float64 { return percentile(ms(durations(spans, name, true)), 90) }
	total := func(name string) float64 { return sum(ms(durations(spans, name, true))) / n }

	vals["matcher.match_ms"] = med("matcher.match")
	vals["constraints.compile_ms"] = med("constraints.compile")
	vals["constraints.partition_ms"] = med("constraints.partition")
	vals["core.init_ms"] = med("core.init")
	vals["core.suggest_ms_p50"] = loopMed("core.suggest")
	vals["core.suggest_ms_p90"] = loopP90("core.suggest")
	vals["core.suggest_ms_total"] = total("core.suggest")
	vals["core.assert_ms_p50"] = loopMed("core.assert")
	vals["core.assert_ms_p90"] = loopP90("core.assert")
	vals["core.assert_ms_total"] = total("core.assert")
	vals["instantiate.ms_p50"] = med("instantiate.run")
	vals["store.open_ms"] = med("store.open")
	vals["store.assert_ms_p50"] = loopMed("store.assert")
	vals["store.assert_ms_p90"] = loopP90("store.assert")
	vals["store.suggest_us_p50"] = loopMed("store.suggest") * 1000
	vals["store.close_ms"] = med("store.close")
	vals["store.recover_ms"] = med("store.recover")
	vals["wal.sync_ms_total"] = sum(ms(durations(spans, "wal.sync", false))) / n
	for layer, d := range selfTime(spans) {
		vals["self_ms."+layer] = float64(d) / float64(time.Millisecond) / n
	}
	var busyPlain, busyTraced []float64
	for i := range plain {
		busyPlain = append(busyPlain, plain[i].busy.Seconds())
		busyTraced = append(busyTraced, traced[i].busy.Seconds())
	}
	if b := median(busyPlain); b > 0 {
		vals["trace.overhead_pct"] = 100 * (median(busyTraced) - b) / b
	}

	return vals
}
