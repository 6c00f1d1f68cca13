package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"runtime"
	"time"

	"schemanet"
)

// datasetSeed fixes the generated dataset of every workload: the
// profiles' shapes vary several-fold between generator seeds (BP from
// 226 to 306 candidates, UAF at scale 0.5 from 1,224 to 2,153), which
// would swamp every timing bound. The workload seed varies the
// sessions instead.
const datasetSeed = 1

// plainWorkload is one annotator on a plain Session over a matched
// profile: set-up is Match + NewSession + the first Suggest.
type plainWorkload struct {
	data *schemanet.Dataset
	// budget is the step count of a round; 0 runs until Suggest
	// reports every candidate asserted.
	budget int
}

func newPlain(profile string, scale float64, budget int) (*plainWorkload, error) {
	d, err := schemanet.GenerateDataset(profile, scale, datasetSeed)
	if err != nil {
		return nil, err
	}
	return &plainWorkload{data: d, budget: budget}, nil
}

type setupResult struct {
	net *schemanet.Network
	s   *schemanet.Session
	c   int
	ok  bool
	d   time.Duration
}

func (w *plainWorkload) setup(rs int64, tr *tracer) (*setupResult, error) {
	root := tr.begin(0, "bench.setup", 0)
	defer tr.end(root)
	start := time.Now()
	id := tr.begin(0, "matcher.match", 0)
	net, err := schemanet.Match(w.data.Network, schemanet.COMALike())
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("match: %w", err)
	}
	id = tr.begin(0, "session.new", 0)
	s, err := schemanet.NewSession(net, &schemanet.Options{Seed: rs})
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("new session: %w", err)
	}
	id = tr.begin(0, "core.suggest", 0)
	c, ok := s.Suggest()
	tr.end(id)
	return &setupResult{net: net, s: s, c: c, ok: ok, d: time.Since(start)}, nil
}

func (w *plainWorkload) setupOnly(rs int64) (time.Duration, error) {
	su, err := w.setup(rs, nil)
	if err != nil {
		return 0, err
	}
	return su.d, nil
}

// checkpoints returns the step numbers at which the k-th tenth of the
// round's effort completes, k = 1..10.
func checkpoints(total int) []int {
	out := make([]int, 0, 10)
	for k := 1; k <= 10; k++ {
		cp := (k*total + 9) / 10
		if cp < 1 {
			cp = 1
		}
		out = append(out, cp)
	}
	return out
}

// liveHeap collects garbage and returns the live heap in bytes, so the
// sample does not depend on where the collector happened to be.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// quality returns precision and F1 of m against the ground truth.
func quality(m, gt *schemanet.Matching) (prec, f1 float64) {
	inter := float64(m.IntersectionSize(gt))
	prec, rec := 1.0, 1.0
	if m.Size() > 0 {
		prec = inter / float64(m.Size())
	}
	if gt.Size() > 0 {
		rec = inter / float64(gt.Size())
	}
	if prec+rec == 0 {
		return prec, 0
	}
	return prec, 2 * prec * rec / (prec + rec)
}

// digest hashes a suggestion sequence: candidate ids and answers.
type digest struct{ h hash.Hash64 }

func newDigest() digest { return digest{fnv.New64a()} }

func (d digest) add(c int, answer bool) {
	var b [9]byte
	binary.LittleEndian.PutUint64(b[:], uint64(c))
	if answer {
		b[8] = 1
	}
	d.h.Write(b[:])
}

func (d digest) sum() uint64 { return d.h.Sum64() }

func (w *plainWorkload) round(rs int64, tr *tracer) (*roundResult, error) {
	start := time.Now()
	res := &roundResult{annotators: 1, layer: make(map[string]float64)}
	gt := w.data.GroundTruth
	su, err := w.setup(rs, tr)
	if err != nil {
		return nil, err
	}
	res.setup, res.ops = su.d, 3
	s, net, c, ok := su.s, su.net, su.c, su.ok
	nc := net.NumCandidates()
	target := w.budget
	if target == 0 {
		target = nc
	}
	cps := checkpoints(target)
	ratio := hRatio(s.Uncertainty())

	traced := tr != nil
	var uncertain []float64
	emitted := s.SamplingEmissions()
	emitStart := emitted
	refillSteps, refillTime := 0, time.Duration(0)
	if traced {
		uncertain = append(uncertain, float64(countUncertain(s, nc)))
		res.layer["core.exact_components_start"] = float64(countExact(s))
	}

	dg := newDigest()
	var last *schemanet.Matching
	step := 0
	for ok && step < target {
		step++
		asked := c
		answer := gt.ContainsCorrespondence(net.Candidate(asked))
		dg.add(asked, answer)
		sid := tr.begin(0, "bench.step", step)
		t0 := time.Now()
		id := tr.begin(0, "core.assert", step)
		err := s.Assert(asked, answer)
		tr.end(id)
		t1 := time.Now()
		id = tr.begin(0, "core.suggest", step)
		c, ok = s.Suggest()
		tr.end(id)
		t2 := time.Now()
		tr.end(sid)
		res.ops += 2
		if err != nil {
			return nil, fmt.Errorf("step %d: assert %d: %w", step, asked, err)
		}
		res.steps = append(res.steps, t2.Sub(t0))
		res.busy += t2.Sub(t0)
		if traced {
			if e := s.SamplingEmissions(); e > emitted {
				refillSteps++
				refillTime += t1.Sub(t0)
				emitted = e
			}
			uncertain = append(uncertain, float64(countUncertain(s, nc)))
		}
		for len(cps) > 0 && cps[0] == step {
			cps = cps[1:]
			cid := tr.begin(0, "bench.checkpoint", step)
			res.hRatios = append(res.hRatios, ratio(s.Uncertainty()))
			// Collecting first also keeps a pending collection out of
			// the timed Instantiate.
			res.heap = max(res.heap, liveHeap())
			id := tr.begin(0, "instantiate.run", step)
			t := time.Now()
			last = s.Instantiate()
			res.inst = append(res.inst, time.Since(t))
			tr.end(id)
			res.ops++
			tr.end(cid)
		}
	}
	res.instMean = []float64{mean(ms(res.inst))}
	res.digest = dg.sum()
	if step < target {
		res.failf("suggestions ran out after %d of %d steps", step, target)
	}
	if last == nil {
		return nil, fmt.Errorf("no checkpoint reached in %d steps", step)
	}
	prec, f1 := quality(last, gt)
	res.f1 = f1
	if w.budget == 0 {
		if ok {
			res.failf("Suggest still offers candidate %d after every candidate was asserted", c)
		}
		if h := s.Uncertainty(); h != 0 {
			res.failf("uncertainty %g after full reconciliation, want 0", h)
		}
		if prec != 1 {
			res.failf("precision %.4f after full reconciliation with a correct oracle, want 1.000", prec)
		}
	}

	if traced {
		steps := float64(len(res.steps))
		res.layer["core.exact_components_end"] = float64(countExact(s))
		res.layer["core.uncertain_mean"] = mean(uncertain)
		res.layer["sampling.emissions"] = float64(emitted)
		res.layer["sampling.emissions_per_step"] = float64(emitted-emitStart) / steps
		res.layer["sampling.refill_steps"] = float64(refillSteps)
		res.layer["sampling.refill_ms_total"] = float64(refillTime) / float64(time.Millisecond)
		if emitted > emitStart {
			res.layer["sampling.us_per_emission"] = float64(refillTime) / float64(time.Microsecond) / float64(emitted-emitStart)
		}
		res.layer["instantiate.matching_size"] = float64(last.Size())
		res.layer["quality.h_ratio_end"] = ratio(s.Uncertainty())
		res.layer["matcher.candidates"] = float64(nc)
		res.layer["matcher.pairs_scored"] = float64(pairsScored(w.data.Network))
		if err := probeSetup(tr, net, rs, res.layer); err != nil {
			return nil, err
		}
	}
	res.wall = time.Since(start)
	return res, nil
}

// hRatio returns H ↦ H/H0; a network with nothing uncertain at the
// start has nothing left to remove, ratio 0.
func hRatio(h0 float64) func(h float64) float64 {
	return func(h float64) float64 {
		if h0 == 0 {
			return 0
		}
		return h / h0
	}
}

// countUncertain counts the candidates whose probability is strictly
// between 0 and 1, read through the public Probability.
func countUncertain(s *schemanet.Session, n int) int {
	k := 0
	for c := 0; c < n; c++ {
		if p, err := s.Probability(c); err == nil && p > 0 && p < 1 {
			k++
		}
	}
	return k
}

// countExact counts the components served by exact inference.
func countExact(s *schemanet.Session) int {
	k := 0
	for i := 0; i < s.Components(); i++ {
		if m, err := s.InferenceOf(i); err == nil && m == schemanet.InferenceExact {
			k++
		}
	}
	return k
}

// pairsScored is the matcher's work: Σ over interaction edges of
// |A|·|B| attribute pairs.
func pairsScored(net *schemanet.Network) int {
	schemas := net.Schemas()
	n := 0
	for _, e := range net.Interaction().Edges() {
		n += len(schemas[e.U].Attrs) * len(schemas[e.V].Attrs)
	}
	return n
}
