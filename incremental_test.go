package schemanet_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"schemanet"
)

// The differential harness behind the dynamic-network guarantee: any
// interleaving of AddSchema / AddCandidates / RetireCandidate / Assert
// on a live session yields the same component partition and inference
// modes as building the final network from scratch and replaying the
// same assertions — with bit-identical probabilities wherever exact
// inference serves. A step script is the shared description; it drives
// the live session op by op and, after every op, denotes the
// from-scratch reference the live state is compared against.

type scSchema struct {
	name  string
	attrs []string
}

type scCand struct {
	from, to string
	conf     float64
}

type scAssert struct {
	from, to string
	ok       bool
}

type scStep struct {
	kind     string // "schema" | "cands" | "retire" | "assert"
	schema   scSchema
	cands    []scCand
	from, to string
	ok       bool
}

// dynScript is the logical network state a step prefix denotes.
type dynScript struct {
	schemas []scSchema
	cands   []scCand
	retired map[string]bool
	asserts []scAssert
}

func pairKey(from, to string) string {
	if to < from {
		from, to = to, from
	}
	return from + "\x00" + to
}

func baseScript() *dynScript {
	return &dynScript{
		schemas: []scSchema{
			{"EoverI", []string{"productionDate"}},
			{"BBC", []string{"date"}},
			{"DVDizzy", []string{"releaseDate", "screenDate"}},
		},
		cands: []scCand{
			{"EoverI.productionDate", "BBC.date", 0.85},
			{"BBC.date", "DVDizzy.releaseDate", 0.80},
			{"EoverI.productionDate", "DVDizzy.releaseDate", 0.75},
			{"BBC.date", "DVDizzy.screenDate", 0.60},
			{"EoverI.productionDate", "DVDizzy.screenDate", 0.55},
		},
		retired: map[string]bool{},
	}
}

func (sc *dynScript) apply(st scStep) {
	switch st.kind {
	case "schema":
		sc.schemas = append(sc.schemas, st.schema)
	case "cands":
		sc.cands = append(sc.cands, st.cands...)
	case "retire":
		sc.retired[pairKey(st.from, st.to)] = true
	case "assert":
		sc.asserts = append(sc.asserts, scAssert{st.from, st.to, st.ok})
	}
}

// buildScratchNet constructs the network the script currently denotes
// through the ordinary Builder, omitting retired candidates. Candidate
// indices do NOT line up with the live session's (Build sorts
// canonically, the live session appends) — all cross-referencing goes
// by attribute full names.
func (sc *dynScript) buildScratchNet(t testing.TB) *schemanet.Network {
	t.Helper()
	b := schemanet.NewBuilder()
	attrID := map[string]schemanet.AttrID{}
	next := 0
	for _, s := range sc.schemas {
		b.AddSchema(s.name, s.attrs...)
		for _, a := range s.attrs {
			attrID[s.name+"."+a] = schemanet.AttrID(next)
			next++
		}
	}
	b.ConnectAll()
	for _, c := range sc.cands {
		if sc.retired[pairKey(c.from, c.to)] {
			continue
		}
		b.AddCorrespondence(attrID[c.from], attrID[c.to], c.conf)
	}
	net, err := b.Build()
	if err != nil {
		t.Fatalf("from-scratch build: %v", err)
	}
	return net
}

func attrByName(net *schemanet.Network, name string) (schemanet.AttrID, bool) {
	for _, s := range net.Schemas() {
		for _, a := range s.Attrs {
			if net.FullName(a) == name {
				return a, true
			}
		}
	}
	return 0, false
}

// candByNames finds a candidate index by its pair names, scanning the
// candidate slice directly so retired (tombstoned) candidates resolve
// too.
func candByNames(t testing.TB, net *schemanet.Network, from, to string) int {
	t.Helper()
	want := pairKey(from, to)
	for c := 0; c < net.NumCandidates(); c++ {
		cand := net.Candidate(c)
		if pairKey(net.FullName(cand.A), net.FullName(cand.B)) == want {
			return c
		}
	}
	t.Fatalf("%s ↔ %s is not a candidate", from, to)
	return -1
}

// scratchSession replays the script's assertions serially on a
// from-scratch session over the denoted network.
func (sc *dynScript) scratchSession(t testing.TB, opts *schemanet.Options) *schemanet.Session {
	t.Helper()
	net := sc.buildScratchNet(t)
	o := *opts
	s, err := schemanet.NewSession(net, &o)
	if err != nil {
		t.Fatalf("from-scratch session: %v", err)
	}
	for _, a := range sc.asserts {
		if err := s.Assert(candByNames(t, net, a.from, a.to), a.ok); err != nil {
			t.Fatalf("from-scratch replay %s ↔ %s: %v", a.from, a.to, err)
		}
	}
	return s
}

// dynOps is the mutation surface shared by Session and DurableSession.
type dynOps interface {
	AddSchema(name string, attrs ...string) error
	AddCandidates([]schemanet.Correspondence) error
	RetireCandidate(c int) error
	Assert(c int, correct bool) error
	Probability(c int) (float64, error)
	Network() *schemanet.Network
}

// partOps is the component introspection available on the in-memory
// session flavors.
type partOps interface {
	ComponentOf(c int) (int, error)
	InferenceOf(k int) (schemanet.InferenceMode, error)
}

func applyStep(t testing.TB, v dynOps, st scStep) {
	t.Helper()
	switch st.kind {
	case "schema":
		if err := v.AddSchema(st.schema.name, st.schema.attrs...); err != nil {
			t.Fatalf("AddSchema(%s): %v", st.schema.name, err)
		}
	case "cands":
		net := v.Network()
		cs := make([]schemanet.Correspondence, len(st.cands))
		for i, c := range st.cands {
			a, oka := attrByName(net, c.from)
			b, okb := attrByName(net, c.to)
			if !oka || !okb {
				t.Fatalf("AddCandidates: unknown attribute in %s ↔ %s", c.from, c.to)
			}
			cs[i] = schemanet.Correspondence{A: a, B: b, Confidence: c.conf}
		}
		if err := v.AddCandidates(cs); err != nil {
			t.Fatalf("AddCandidates: %v", err)
		}
	case "retire":
		if err := v.RetireCandidate(candByNames(t, v.Network(), st.from, st.to)); err != nil {
			t.Fatalf("RetireCandidate(%s ↔ %s): %v", st.from, st.to, err)
		}
	case "assert":
		if err := v.Assert(candByNames(t, v.Network(), st.from, st.to), st.ok); err != nil {
			t.Fatalf("Assert(%s ↔ %s): %v", st.from, st.to, err)
		}
	}
}

// partitionOf canonicalizes a session's partition over the given live
// candidates as sorted member-name groups, paired with each group's
// inference mode.
func partitionOf(t testing.TB, v partOps, net *schemanet.Network, live []int) map[string]schemanet.InferenceMode {
	t.Helper()
	groups := map[int][]string{}
	for _, c := range live {
		k, err := v.ComponentOf(c)
		if err != nil {
			t.Fatalf("ComponentOf(%d): %v", c, err)
		}
		cand := net.Candidate(c)
		groups[k] = append(groups[k], pairKey(net.FullName(cand.A), net.FullName(cand.B)))
	}
	out := make(map[string]schemanet.InferenceMode, len(groups))
	for k, ms := range groups {
		sort.Strings(ms)
		mode, err := v.InferenceOf(k)
		if err != nil {
			t.Fatalf("InferenceOf(%d): %v", k, err)
		}
		out[strings.Join(ms, "|")] = mode
	}
	return out
}

// checkAgainstScratch compares the live session against a from-scratch
// build-and-replay of the script. Probabilities are required to be
// bit-identical for every candidate served by exact inference (all of
// them when the options force exact); the partition and per-component
// modes must always match.
func checkAgainstScratch(t testing.TB, label string, v dynOps, sc *dynScript, opts *schemanet.Options) {
	t.Helper()
	ref := sc.scratchSession(t, opts)
	refNet := ref.Network()
	liveNet := v.Network()

	if got, want := liveNet.NumCandidates(), len(sc.cands); got != want {
		t.Fatalf("%s: live network has %d candidates, script denotes %d", label, got, want)
	}

	// live / refLive are index pairs (live session net, scratch net) for
	// every non-retired script candidate, matched by pair names.
	var live, refLive []int
	for _, c := range sc.cands {
		li := candByNames(t, liveNet, c.from, c.to)
		if sc.retired[pairKey(c.from, c.to)] {
			if !liveNet.Retired(li) {
				t.Fatalf("%s: candidate %d (%s ↔ %s) should be retired", label, li, c.from, c.to)
			}
			if p, err := v.Probability(li); err != nil || p != 0 {
				t.Fatalf("%s: retired candidate %d: p = %v, err = %v; want 0, nil", label, li, p, err)
			}
			if err := v.Assert(li, true); !errors.Is(err, schemanet.ErrCandidateRetired) {
				t.Fatalf("%s: asserting retired candidate %d: err = %v, want ErrCandidateRetired", label, li, err)
			}
			continue
		}
		live = append(live, li)
		refLive = append(refLive, candByNames(t, refNet, c.from, c.to))
	}

	// Partition + modes, where the flavor exposes them.
	pv, hasParts := v.(partOps)
	var livePart, refPart map[string]schemanet.InferenceMode
	if hasParts {
		livePart = partitionOf(t, pv, liveNet, live)
		refPart = partitionOf(t, ref, refNet, refLive)
		if len(livePart) != len(refPart) {
			t.Fatalf("%s: partition mismatch: live has %d components over these candidates, from-scratch %d\nlive: %v\nref: %v",
				label, len(livePart), len(refPart), livePart, refPart)
		}
		for key, mode := range livePart {
			refMode, ok := refPart[key]
			if !ok {
				t.Fatalf("%s: live component {%s} does not exist from scratch", label, strings.ReplaceAll(key, "\x00", "~"))
			}
			if mode != refMode {
				t.Fatalf("%s: component {%s}: live inference %v, from-scratch %v",
					label, strings.ReplaceAll(key, "\x00", "~"), mode, refMode)
			}
		}
	}

	for j, li := range live {
		// Without partition introspection (DurableSession) only compare
		// when the options force exact inference everywhere.
		exact := opts.Inference == "exact"
		if !exact && hasParts {
			k, err := pv.ComponentOf(li)
			if err != nil {
				t.Fatal(err)
			}
			mode, err := pv.InferenceOf(k)
			if err != nil {
				t.Fatal(err)
			}
			exact = mode == schemanet.InferenceExact
		}
		if !exact {
			continue
		}
		got, err := v.Probability(li)
		if err != nil {
			t.Fatalf("%s: Probability(%d): %v", label, li, err)
		}
		want := mustProb(t, ref, refLive[j])
		if got != want {
			cand := liveNet.Candidate(li)
			t.Fatalf("%s: p(%s ↔ %s) = %v live, %v from scratch (not bit-identical under exact inference)",
				label, liveNet.FullName(cand.A), liveNet.FullName(cand.B), got, want)
		}
	}
}

// growthSteps is the deterministic interleaving exercising every
// topology mutation: grow a schema, bridge it in (merging components),
// assert across the growth, retire (splitting), and grow again on top.
func growthSteps() []scStep {
	return []scStep{
		{kind: "assert", from: "EoverI.productionDate", to: "BBC.date", ok: true},
		{kind: "schema", schema: scSchema{"Wiki", []string{"released", "title"}}},
		{kind: "cands", cands: []scCand{
			{"Wiki.released", "BBC.date", 0.70},
			{"Wiki.released", "EoverI.productionDate", 0.65},
		}},
		{kind: "assert", from: "Wiki.released", to: "BBC.date", ok: false},
		{kind: "retire", from: "BBC.date", to: "DVDizzy.screenDate"},
		{kind: "cands", cands: []scCand{
			{"Wiki.title", "DVDizzy.screenDate", 0.50},
		}},
		{kind: "assert", from: "BBC.date", to: "DVDizzy.releaseDate", ok: true},
		{kind: "retire", from: "Wiki.title", to: "DVDizzy.screenDate"},
		{kind: "schema", schema: scSchema{"IMDB", []string{"year"}}},
		{kind: "cands", cands: []scCand{
			{"IMDB.year", "Wiki.released", 0.80},
			{"IMDB.year", "EoverI.productionDate", 0.45},
		}},
		{kind: "assert", from: "IMDB.year", to: "Wiki.released", ok: true},
	}
}

// runDifferential drives the steps on a live flavor, comparing against
// the from-scratch reference after every single step.
func runDifferential(t *testing.T, label string, opts *schemanet.Options, steps []scStep,
	mk func(t *testing.T, net *schemanet.Network, opts *schemanet.Options) dynOps) {
	t.Helper()
	sc := baseScript()
	baseNet := sc.buildScratchNet(t)
	v := mk(t, baseNet, opts)
	checkAgainstScratch(t, label+" (base)", v, sc, opts)
	for i, st := range steps {
		applyStep(t, v, st)
		sc.apply(st)
		checkAgainstScratch(t, fmt.Sprintf("%s step %d (%s)", label, i, st.kind), v, sc, opts)
	}
}

func mkPlain(t *testing.T, net *schemanet.Network, opts *schemanet.Options) dynOps {
	o := *opts
	s, err := schemanet.NewSession(net, &o)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// mkConcurrent is mkPlain with a background reader polling the
// snapshot read paths across every topology change (run it with -race).
// The reader stays off Suggest: a suggestion draws from the session rng,
// which the differential's own draws must not share.
func mkConcurrent(t *testing.T, net *schemanet.Network, opts *schemanet.Options) dynOps {
	s := mkPlain(t, net, opts).(*schemanet.Session)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			// Probe until the universe ends: the live network grows in
			// place, so its size is not readable from here.
			for c := 0; ; c++ {
				if _, err := s.Probability(c); err != nil {
					break
				}
			}
			s.Uncertainty()
		}
	}()
	t.Cleanup(func() {
		close(done)
		wg.Wait()
	})
	return s
}

func mkDurable(t *testing.T, net *schemanet.Network, opts *schemanet.Options) dynOps {
	o := *opts
	st, err := schemanet.OpenStore(t.TempDir(), net, &schemanet.StoreOptions{Session: &o})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	ds, err := st.Session("dyn")
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestDynamicDifferentialExact(t *testing.T) {
	opts := &schemanet.Options{Inference: "exact", Seed: 11}
	t.Run("plain", func(t *testing.T) { runDifferential(t, "plain", opts, growthSteps(), mkPlain) })
	t.Run("concurrent", func(t *testing.T) { runDifferential(t, "concurrent", opts, growthSteps(), mkConcurrent) })
	t.Run("durable", func(t *testing.T) { runDifferential(t, "durable", opts, growthSteps(), mkDurable) })
}

// TestDynamicDifferentialAuto checks the headline guarantee under the
// default hybrid inference: partition and per-component modes match a
// from-scratch build at every step, and every exact-served component's
// probabilities are bit-identical (sampled components are statistically
// equivalent by construction and not compared).
func TestDynamicDifferentialAuto(t *testing.T) {
	opts := &schemanet.Options{Seed: 5, Samples: 150}
	t.Run("plain", func(t *testing.T) { runDifferential(t, "plain", opts, growthSteps(), mkPlain) })
	t.Run("concurrent", func(t *testing.T) { runDifferential(t, "concurrent", opts, growthSteps(), mkConcurrent) })
}

// randomScript generates a seed-determined interleaving of topology
// mutations and assertions over the video base. Pairs are never
// re-added after retirement (the live network keeps the tombstone, a
// from-scratch build would merge the histories) and the candidate count
// is capped to keep exact enumeration cheap.
func randomScript(seed int64, steps, maxCands int) []scStep {
	rng := rand.New(rand.NewSource(seed))
	sc := baseScript()
	everPaired := map[string]bool{}
	for _, c := range sc.cands {
		everPaired[pairKey(c.from, c.to)] = true
	}
	asserted := map[string]bool{}
	attrSchema := map[string]string{}
	var attrs []string
	for _, s := range sc.schemas {
		for _, a := range s.attrs {
			full := s.name + "." + a
			attrs = append(attrs, full)
			attrSchema[full] = s.name
		}
	}
	liveCands := func() []scCand {
		var out []scCand
		for _, c := range sc.cands {
			if !sc.retired[pairKey(c.from, c.to)] {
				out = append(out, c)
			}
		}
		return out
	}
	var out []scStep
	emit := func(st scStep) {
		out = append(out, st)
		sc.apply(st)
	}
	for len(out) < steps {
		switch p := rng.Intn(100); {
		case p < 15: // add-schema
			name := fmt.Sprintf("R%d", len(sc.schemas))
			n := 1 + rng.Intn(2)
			var as []string
			for i := 0; i < n; i++ {
				as = append(as, fmt.Sprintf("a%d", i))
			}
			emit(scStep{kind: "schema", schema: scSchema{name, as}})
			for _, a := range as {
				full := name + "." + a
				attrs = append(attrs, full)
				attrSchema[full] = name
			}
		case p < 40: // add-candidates
			if len(sc.cands) >= maxCands {
				continue
			}
			var free []scCand
			for i, a := range attrs {
				for _, b := range attrs[i+1:] {
					if attrSchema[a] != attrSchema[b] && !everPaired[pairKey(a, b)] {
						free = append(free, scCand{a, b, 0})
					}
				}
			}
			if len(free) == 0 {
				continue
			}
			n := 1 + rng.Intn(2)
			if n > len(free) {
				n = len(free)
			}
			var cs []scCand
			for i := 0; i < n; i++ {
				c := free[rng.Intn(len(free))]
				if everPaired[pairKey(c.from, c.to)] {
					continue // duplicate draw within this batch
				}
				c.conf = 0.3 + 0.6*rng.Float64()
				everPaired[pairKey(c.from, c.to)] = true
				cs = append(cs, c)
			}
			if len(cs) > 0 {
				emit(scStep{kind: "cands", cands: cs})
			}
		case p < 50: // retire
			var pool []scCand
			for _, c := range liveCands() {
				if !asserted[pairKey(c.from, c.to)] {
					pool = append(pool, c)
				}
			}
			if len(pool) < 2 {
				continue
			}
			c := pool[rng.Intn(len(pool))]
			emit(scStep{kind: "retire", from: c.from, to: c.to})
		default: // assert
			var pool []scCand
			for _, c := range liveCands() {
				if !asserted[pairKey(c.from, c.to)] {
					pool = append(pool, c)
				}
			}
			if len(pool) == 0 {
				continue
			}
			c := pool[rng.Intn(len(pool))]
			asserted[pairKey(c.from, c.to)] = true
			emit(scStep{kind: "assert", from: c.from, to: c.to, ok: rng.Intn(2) == 0})
		}
	}
	return out
}

func TestDynamicRandomDifferential(t *testing.T) {
	opts := &schemanet.Options{Inference: "exact", Seed: 3}
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runDifferential(t, "random", opts, randomScript(seed, 14, 14), mkPlain)
		})
	}
}

// FuzzIncrementalBuild fuzzes the interleaving space: a seed-derived
// random grow/assert/retire schedule runs on a live session and is
// differentially checked against a from-scratch build after every op.
func FuzzIncrementalBuild(f *testing.F) {
	f.Add(int64(1), uint8(6))
	f.Add(int64(42), uint8(12))
	f.Add(int64(-7), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		steps := int(n%14) + 1
		opts := &schemanet.Options{Inference: "exact", Seed: seed}
		runDifferential(t, "fuzz", opts, randomScript(seed, steps, 12), mkPlain)
	})
}

// FuzzSampledInvariants runs FuzzIncrementalBuild's seed-derived
// schedules under sampled inference. Sampled estimates cannot be
// compared with a from-scratch build, so after every op it checks what
// holds regardless of the sample stream: a retired candidate reads
// probability 0, is never suggested, and never enters the instantiated
// matching, and an asserted candidate reads its assertion (1 or 0).
func FuzzSampledInvariants(f *testing.F) {
	f.Add(int64(1), uint8(6))
	f.Add(int64(42), uint8(12))
	f.Add(int64(-7), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		steps := int(n%14) + 1
		sc := baseScript()
		s := mkPlain(t, sc.buildScratchNet(t), &schemanet.Options{Inference: "sampled", Seed: seed, Samples: 100}).(*schemanet.Session)
		for i, st := range randomScript(seed, steps, 12) {
			applyStep(t, s, st)
			sc.apply(st)
			checkSampledInvariants(t, fmt.Sprintf("step %d (%s)", i, st.kind), s, sc)
		}
	})
}

// checkSampledInvariants checks the stream-independent invariants of
// FuzzSampledInvariants on a live session against its script.
func checkSampledInvariants(t *testing.T, label string, s *schemanet.Session, sc *dynScript) {
	t.Helper()
	net := s.Network()
	m := s.Instantiate()
	for _, c := range sc.cands {
		if !sc.retired[pairKey(c.from, c.to)] {
			continue
		}
		li := candByNames(t, net, c.from, c.to)
		if p := mustProb(t, s, li); p != 0 {
			t.Fatalf("%s: retired %s ↔ %s has probability %v, want 0", label, c.from, c.to, p)
		}
		if m.ContainsCorrespondence(net.Candidate(li)) {
			t.Fatalf("%s: retired %s ↔ %s is in the instantiated matching", label, c.from, c.to)
		}
	}
	for _, a := range sc.asserts {
		want := 0.0
		if a.ok {
			want = 1
		}
		if p := mustProb(t, s, candByNames(t, net, a.from, a.to)); p != want {
			t.Fatalf("%s: asserted %s ↔ %s (%v) has probability %v", label, a.from, a.to, a.ok, p)
		}
	}
	if c, ok := s.Suggest(); ok && net.Retired(c) {
		cand := net.Candidate(c)
		t.Fatalf("%s: retired %s ↔ %s suggested", label, net.FullName(cand.A), net.FullName(cand.B))
	}
}

// TestDynamicSaveLoadRoundTrip: a grown session saves as a Version 2
// operation stream and loads back — against the ORIGINAL base network —
// to bit-identical probabilities.
func TestDynamicSaveLoadRoundTrip(t *testing.T) {
	opts := &schemanet.Options{Inference: "exact", Seed: 23}
	sc := baseScript()
	baseNet := sc.buildScratchNet(t)
	s := mkPlain(t, baseNet, opts).(*schemanet.Session)
	for _, st := range growthSteps() {
		applyStep(t, s, st)
		sc.apply(st)
	}
	var buf strings.Builder
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"version": 2`) {
		t.Fatalf("grown session saved without version 2:\n%s", buf.String())
	}
	restored, err := schemanet.LoadSession(baseNet, opts, strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	net := s.Network()
	if restored.Network().NumCandidates() != net.NumCandidates() {
		t.Fatalf("restored network has %d candidates, want %d",
			restored.Network().NumCandidates(), net.NumCandidates())
	}
	for c := 0; c < net.NumCandidates(); c++ {
		if got, want := mustProb(t, restored, c), mustProb(t, s, c); got != want {
			t.Fatalf("restored p(%d) = %v, want %v", c, got, want)
		}
	}
	// The restored session keeps growing.
	if err := restored.AddSchema("PostLoad", "x"); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentTopologyRace runs topology mutations against a steady
// read/assert load (run it with -race -cpu 4): arrivals serialize
// behind the topology lock while assertions on disjoint components keep
// flowing, and the session stays consistent throughout.
func TestConcurrentTopologyRace(t *testing.T) {
	net, truth := multiVideoNet(t, 3)
	cs, err := schemanet.NewSession(net, &schemanet.Options{Inference: "exact", Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	nBase := net.NumCandidates()
	// Captured up front: Network() returns the live network, which the
	// grower below appends to in place — reading candidates from it
	// mid-growth would race with the append.
	baseCands := make([]schemanet.Correspondence, nBase)
	for c := 0; c < nBase; c++ {
		baseCands[c] = net.Candidate(c)
	}
	var wg sync.WaitGroup
	// Asserters: each claims a disjoint slice of the base candidates.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for c := w; c < nBase; c += 2 {
				if err := cs.Assert(c, truth.ContainsCorrespondence(baseCands[c])); err != nil &&
					!errors.Is(err, schemanet.ErrCandidateRetired) {
					t.Errorf("assert %d: %v", c, err)
				}
			}
		}(w)
	}
	// Readers: suggestions and probabilities under the growth.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			cs.Suggest()
			cs.Uncertainty()
			if p, err := cs.Probability(i % nBase); err != nil || p < 0 || p > 1 {
				t.Errorf("probability %d: p = %v, err = %v", i%nBase, p, err)
			}
		}
	}()
	// Grower: schema arrival, candidate arrival bridging into the base,
	// then a retire of one of the arrivals.
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := cs.AddSchema("Live", "x", "y"); err != nil {
			t.Errorf("AddSchema: %v", err)
			return
		}
		liveNet := cs.Network()
		x, _ := attrByName(liveNet, "Live.x")
		y, _ := attrByName(liveNet, "Live.y")
		base := liveNet.Candidate(0)
		if err := cs.AddCandidates([]schemanet.Correspondence{
			{A: x, B: base.A, Confidence: 0.6},
			{A: y, B: base.B, Confidence: 0.4},
		}); err != nil {
			t.Errorf("AddCandidates: %v", err)
			return
		}
		c := liveNet.CandidateIndex(y, base.B)
		if c < 0 {
			t.Error("appended candidate not found")
			return
		}
		if err := cs.RetireCandidate(c); err != nil &&
			!strings.Contains(err.Error(), "asserted") {
			t.Errorf("RetireCandidate: %v", err)
		}
	}()
	wg.Wait()

	// The session is still coherent: every candidate serves a valid
	// probability and a save/load round trip reproduces it.
	liveNet := cs.Network()
	for c := 0; c < liveNet.NumCandidates(); c++ {
		if p, err := cs.Probability(c); err != nil || p < 0 || p > 1 {
			t.Fatalf("after race: p(%d) = %v, err = %v", c, p, err)
		}
	}
	var buf strings.Builder
	if err := cs.Save(&buf); err != nil {
		t.Fatal(err)
	}
}
