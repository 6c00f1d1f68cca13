package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false},
		{20, 50, true},
		{99, 50, true}, // p90 would leave 9 samples beyond
		{100, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // descending: percentile must sort
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := median(xs); got != 50.5 {
		t.Errorf("median of 1..100 = %v, want 50.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3,1,2 = %v, want 2", got)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("p99 of one sample = %v, want 7", got)
	}
	if xs[0] != 100 {
		t.Error("percentile reordered its input")
	}
}

func TestSelfTimeNestedSpans(t *testing.T) {
	// bench.step [0,100) holds core.assert [10,60) — which holds
	// wal.sync [20,30) — and core.suggest [70,90). A probe and an
	// unfinished span do not count.
	spans := []span{
		{ID: 1, Name: "bench.step", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "core.assert", Start: 10, End: 60},
		{ID: 3, Parent: 2, Name: "wal.sync", Start: 20, End: 30},
		{ID: 4, Parent: 1, Name: "core.suggest", Start: 70, End: 90},
		{ID: 5, Name: "core.init", Start: 100, End: 200, Probe: true},
		{ID: 6, Name: "bench.setup", Start: 300},
	}
	got := selfTime(spans)
	want := map[string]time.Duration{"bench": 30, "core": 60, "wal": 10}
	for layer, d := range want {
		if got[layer] != d {
			t.Errorf("self time of %s = %v, want %v", layer, got[layer], d)
		}
	}
	if len(got) != len(want) {
		t.Errorf("self time layers = %v, want %v", got, want)
	}
}

func TestTracerNestsPerTrack(t *testing.T) {
	tr := newTracer()
	outer := tr.begin(1, "bench.step", 7)
	other := tr.begin(2, "store.assert", 3) // another track: not a child
	inner := tr.begin(1, "store.assert", 7)
	tr.end(inner)
	tr.end(other)
	tr.end(outer)
	p := tr.probe("core.init", 0)
	tr.end(p)
	spans := tr.snapshot()
	if spans[inner-1].Parent != outer || spans[other-1].Parent != 0 {
		t.Errorf("parents: inner %d (want %d), other %d (want 0)", spans[inner-1].Parent, outer, spans[other-1].Parent)
	}
	if spans[inner-1].Step != 7 || !spans[p-1].Probe {
		t.Errorf("step id or probe flag lost: %+v %+v", spans[inner-1], spans[p-1])
	}
	for _, s := range spans {
		if s.End < s.Start || s.End == 0 {
			t.Errorf("span %+v not closed", s)
		}
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin(0, "bench.step", 1)) // untraced runs: no-op
}

func TestMetricNames(t *testing.T) {
	for _, bad := range []string{"", "a b", ".x", "_x", "p99é", "x/y", strings.Repeat("a", 65)} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
	for _, good := range []string{"setup_s", "core.assert_ms_p50", "wal.bytes-per.x", "9lives"} {
		if !validName(good) {
			t.Errorf("validName(%q) = false", good)
		}
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !validName(m.name) {
			t.Errorf("metric name %q is invalid", m.name)
		}
		if seen[m.name] {
			t.Errorf("metric name %q used twice", m.name)
		}
		seen[m.name] = true
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the program's metric tables
// and workload list in step with the benchmark definition.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", def.EndToEnd, endToEnd)
	check("per_layer", def.PerLayer, perLayer)
	if len(def.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(def.Workloads), len(workloadNames))
	}
	for i, w := range def.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloadNames[i])
		}
	}
}

func TestRunRoundsMinimumSteps(t *testing.T) {
	// Every round claims to outlast the budget, so only the step
	// minimum keeps the run going: 30-step rounds need four.
	calls := 0
	err := runRounds(time.Millisecond, func(r int) (time.Duration, int, error) {
		calls++
		return time.Second, 30, nil
	})
	if err != nil || calls != 4 {
		t.Errorf("runRounds made %d rounds (err %v), want 4", calls, err)
	}
	err = runRounds(time.Hour, func(r int) (time.Duration, int, error) { return 0, 0, nil })
	if err == nil {
		t.Error("a round without steps did not end the run")
	}
}

func TestCheckpoints(t *testing.T) {
	cps := checkpoints(306)
	if len(cps) != 10 || cps[0] != 31 || cps[9] != 306 {
		t.Errorf("checkpoints(306) = %v", cps)
	}
	if cps := checkpoints(5); cps[0] != 1 || cps[9] != 5 {
		t.Errorf("checkpoints(5) = %v", cps)
	}
}

// smoke runs one untraced and one traced round of a workload at
// a tiny scale and checks the gates, the digest agreement and the
// per-layer values the traced round must produce.
func smoke(t *testing.T, w workload, layers ...string) {
	t.Helper()
	u, err := w.round(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	v, err := w.round(5, tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*roundResult{u, v} {
		if len(r.gates) > 0 {
			t.Errorf("checks failed: %v", r.gates)
		}
		if len(r.steps) == 0 || len(r.inst) == 0 || r.setup <= 0 || r.busy <= 0 || r.annotators < 1 || r.f1 <= 0 {
			t.Errorf("round measured nothing: %d steps, %d instantiations, setup %v, busy %v, %d annotators, f1 %v",
				len(r.steps), len(r.inst), r.setup, r.busy, r.annotators, r.f1)
		}
	}
	if u.digest != v.digest {
		t.Errorf("traced digest %x differs from untraced %x", v.digest, u.digest)
	}
	if d, err := w.setupOnly(6); err != nil || d <= 0 {
		t.Errorf("setupOnly = %v, %v", d, err)
	}
	spans := tr.snapshot()
	vals := layerMetrics(spans, []*roundResult{u}, []*roundResult{v})
	for _, name := range layers {
		if vals[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, vals[name])
		}
	}
	for _, s := range spans {
		if s.End == 0 {
			t.Errorf("span %s left open", s.Name)
		}
	}
}

func TestSmokePlainFull(t *testing.T) {
	// At this scale every component is served exactly.
	w, err := newPlain("bp", 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	smoke(t, w, "matcher.match_ms", "matcher.pairs_scored", "constraints.compile_ms", "constraints.components",
		"core.init_ms", "core.exact_components_start", "core.suggest_ms_p50", "core.assert_ms_total",
		"instantiate.ms_p50", "instantiate.matching_size", "self_ms.core", "self_ms.matcher")
}

func TestSmokePlainBudget(t *testing.T) {
	// One sampled component of 268 candidates.
	w, err := newPlain("uaf", 0.3, 12)
	if err != nil {
		t.Fatal(err)
	}
	smoke(t, w, "matcher.match_ms", "core.suggest_ms_p90", "core.uncertain_mean", "quality.h_ratio_end",
		"sampling.emissions", "sampling.refill_steps", "sampling.us_per_emission")
}

func TestSmokeDurable(t *testing.T) {
	w, err := newDurable(48, 2, 2, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	smoke(t, w, "store.open_ms", "store.assert_ms_p50", "store.suggest_us_p50", "store.close_ms",
		"store.recover_ms", "wal.bytes", "wal.bytes_per_assert", "wal.syncs", "wal.snapshot_bytes",
		"core.init_ms", "core.assert_ms_p50", "constraints.components", "self_ms.store", "self_ms.wal")
}
