package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"schemanet"
	"schemanet/internal/datagen"
	"schemanet/internal/wal"
)

// snapshotEvery is the store's compaction threshold: low enough that a
// 1,024-candidate session compacts four times, so snapshot writes are
// part of the measured loop and recovery replays snapshot plus tail.
const snapshotEvery = 256

// durableWorkload is annotators reconciling named sessions to
// completion through one SessionStore over a synthetic many-component
// network (no matcher runs). Each round opens a fresh store, runs the
// annotators, closes the store, reopens it and recovers every session.
type durableWorkload struct {
	data       *schemanet.Dataset
	annotators int
	sessions   int // per annotator per round; annotators·sessions stays within the store's resident pool
	workDir    string
	rounds     int
}

func newDurable(candidates, annotators, sessions int, workDir string) (*durableWorkload, error) {
	if annotators*sessions > schemanet.DefaultMaxOpen {
		return nil, fmt.Errorf("%d sessions exceed the resident pool of %d", annotators*sessions, schemanet.DefaultMaxOpen)
	}
	d, err := datagen.SyntheticNetwork(datagen.MultiComp(), datagen.SyntheticOpts{
		TargetCount: candidates, Precision: 0.67, ConflictBias: 0.3, StrictCount: true,
	}, rand.New(rand.NewSource(datasetSeed)))
	if err != nil {
		return nil, err
	}
	return &durableWorkload{data: d, annotators: annotators, sessions: sessions, workDir: workDir}, nil
}

func sessionName(a, k int) string { return fmt.Sprintf("a%d-s%d", a, k) }

func (w *durableWorkload) options(rs int64, fs wal.FS) *schemanet.StoreOptions {
	return &schemanet.StoreOptions{
		Session:       &schemanet.Options{Seed: rs},
		SnapshotEvery: snapshotEvery,
		FS:            fs,
	}
}

// freshDir returns an empty store directory for the next round.
func (w *durableWorkload) freshDir() (string, error) {
	w.rounds++
	dir := filepath.Join(w.workDir, fmt.Sprintf("store-%d-%d", os.Getpid(), w.rounds))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, nil
}

type durableSetup struct {
	st *schemanet.SessionStore
	ds *schemanet.DurableSession
	c  int
	ok bool
	d  time.Duration
}

// setup opens the store and serves the first question of the first
// session.
func (w *durableWorkload) setup(dir string, opts *schemanet.StoreOptions, tr *tracer) (*durableSetup, error) {
	root := tr.begin(0, "bench.setup", 0)
	defer tr.end(root)
	start := time.Now()
	id := tr.begin(0, "store.open", 0)
	st, err := schemanet.OpenStore(dir, w.data.Network, opts)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	id = tr.begin(0, "store.session", 0)
	ds, err := st.Session(sessionName(0, 0))
	tr.end(id)
	if err != nil {
		st.Close()
		return nil, fmt.Errorf("open session: %w", err)
	}
	id = tr.begin(0, "store.suggest", 0)
	c, ok := ds.Suggest()
	tr.end(id)
	return &durableSetup{st: st, ds: ds, c: c, ok: ok, d: time.Since(start)}, nil
}

func (w *durableWorkload) setupOnly(rs int64) (time.Duration, error) {
	dir, err := w.freshDir()
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	su, err := w.setup(dir, w.options(rs, nil), nil)
	if err != nil {
		return 0, err
	}
	if err := su.st.Close(); err != nil {
		return 0, fmt.Errorf("close store: %w", err)
	}
	return su.d, nil
}

// sessionRun is what one annotator measured on one session.
type sessionRun struct {
	name    string
	answers []answer
	probs   []float64 // every candidate's probability before the close
	f1      float64
	size    int // size of the last instantiated matching
}

// annotatorRun is one annotator goroutine's share of a round.
type annotatorRun struct {
	steps    []time.Duration
	busy     time.Duration
	inst     []time.Duration
	instMean []float64
	hRatios  []float64
	sessions []sessionRun
	ops      int
	gates    []string
	err      error
}

func (w *durableWorkload) annotate(a int, st *schemanet.SessionStore, first *durableSetup, cp *barrier, tr *tracer) *annotatorRun {
	defer cp.leave()
	run := &annotatorRun{}
	track := a + 1
	annotator := fmt.Sprintf("annotator-%d", a)
	gt := w.data.GroundTruth
	net := w.data.Network
	nc := net.NumCandidates()
	for k := 0; k < w.sessions; k++ {
		name := sessionName(a, k)
		var ds *schemanet.DurableSession
		var c int
		var ok bool
		if a == 0 && k == 0 {
			ds, c, ok = first.ds, first.c, first.ok
		} else {
			id := tr.begin(track, "store.session", 0)
			var err error
			ds, err = st.Session(name)
			tr.end(id)
			if err != nil {
				run.err = fmt.Errorf("open session %s: %w", name, err)
				return run
			}
			id = tr.begin(track, "store.suggest", 0)
			c, ok = ds.Suggest()
			tr.end(id)
			run.ops += 2
		}
		h0, err := ds.Uncertainty()
		if err != nil {
			run.err = fmt.Errorf("%s: uncertainty: %w", name, err)
			return run
		}
		ratio := hRatio(h0)
		sr := sessionRun{name: name}
		cps := checkpoints(nc)
		firstInst := len(run.inst)
		var last *schemanet.Matching
		step := 0
		for ok {
			step++
			asked := c
			yes := gt.ContainsCorrespondence(net.Candidate(asked))
			sr.answers = append(sr.answers, answer{asked, yes})
			sid := tr.begin(track, "bench.step", step)
			t0 := time.Now()
			id := tr.begin(track, "store.assert", step)
			err := ds.AssertAs(annotator, asked, yes)
			tr.end(id)
			id = tr.begin(track, "store.suggest", step)
			c, ok = ds.Suggest()
			tr.end(id)
			d := time.Since(t0)
			tr.end(sid)
			run.ops += 2
			if err != nil {
				run.err = fmt.Errorf("%s step %d: assert %d: %w", name, step, asked, err)
				return run
			}
			run.steps = append(run.steps, d)
			run.busy += d
			for len(cps) > 0 && cps[0] == step {
				cps = cps[1:]
				cid := tr.begin(track, "bench.checkpoint", step)
				h, herr := ds.Uncertainty()
				// The annotators run identical sessions, so they reach
				// each checkpoint together: instantiate on an idle,
				// collected heap rather than beside the other
				// annotator's refill.
				cp.wait()
				if a == 0 {
					runtime.GC()
				}
				cp.wait()
				id := tr.begin(track, "instantiate.run", step)
				t := time.Now()
				m, ierr := ds.Instantiate()
				run.inst = append(run.inst, time.Since(t))
				tr.end(id)
				tr.end(cid)
				run.ops++
				if herr != nil || ierr != nil {
					run.err = fmt.Errorf("%s checkpoint %d: %v, %v", name, step, herr, ierr)
					return run
				}
				run.hRatios = append(run.hRatios, ratio(h))
				last = m
			}
		}
		run.instMean = append(run.instMean, mean(ms(run.inst[firstInst:])))
		if step != nc {
			run.gates = append(run.gates, fmt.Sprintf("%s: Suggest stopped after %d of %d candidates", name, step, nc))
		}
		if last != nil {
			_, sr.f1 = quality(last, gt)
			sr.size = last.Size()
		}
		sr.probs = make([]float64, nc)
		for i := range sr.probs {
			if sr.probs[i], err = ds.Probability(i); err != nil {
				run.err = fmt.Errorf("%s: probability %d: %w", name, i, err)
				return run
			}
		}
		run.sessions = append(run.sessions, sr)
	}
	return run
}

func (w *durableWorkload) round(rs int64, tr *tracer) (*roundResult, error) {
	start := time.Now()
	res := &roundResult{annotators: w.annotators, layer: make(map[string]float64)}
	dir, err := w.freshDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var cfs *countingFS
	var fs wal.FS
	if tr != nil {
		cfs = &countingFS{inner: wal.OS(), tr: tr, root: dir}
		fs = cfs
	}
	opts := w.options(rs, fs)
	su, err := w.setup(dir, opts, tr)
	if err != nil {
		return nil, err
	}
	res.setup, res.ops = su.d, 3
	st := su.st
	defer st.Close()

	cfs.setRouted(true)
	runs := make([]*annotatorRun, w.annotators)
	b := newBarrier(w.annotators)
	var wg sync.WaitGroup
	for a := range runs {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			runs[a] = w.annotate(a, st, su, b, tr)
		}(a)
	}
	wg.Wait()
	cfs.setRouted(false)

	var sessions []sessionRun
	var f1s []float64
	for _, r := range runs {
		res.ops += r.ops
		if r.err != nil {
			return nil, r.err
		}
		res.gates = append(res.gates, r.gates...)
		res.steps = append(res.steps, r.steps...)
		res.busy += r.busy
		res.inst = append(res.inst, r.inst...)
		res.instMean = append(res.instMean, r.instMean...)
		res.hRatios = append(res.hRatios, r.hRatios...)
		sessions = append(sessions, r.sessions...)
	}
	dg := newDigest()
	for _, s := range sessions {
		for _, a := range s.answers {
			dg.add(a.c, a.yes)
		}
		f1s = append(f1s, s.f1)
	}
	res.digest = dg.sum()
	res.f1 = median(f1s)
	res.heap = liveHeap()

	id := tr.begin(0, "store.close", -1)
	err = st.Close()
	tr.end(id)
	res.ops++
	if err != nil {
		return nil, fmt.Errorf("close store: %w", err)
	}

	rid := tr.begin(0, "store.recover", -1)
	st2, err := schemanet.OpenStore(dir, w.data.Network, opts)
	if err != nil {
		tr.end(rid)
		return nil, fmt.Errorf("reopen store: %w", err)
	}
	defer st2.Close()
	handles := make([]*schemanet.DurableSession, len(sessions))
	for i, s := range sessions {
		ds, err := st2.Session(s.name)
		if err == nil {
			var seq uint64
			seq, err = ds.Seq()
			if err == nil && seq != uint64(len(s.answers)) {
				res.failf("%s: recovered Seq %d, want %d", s.name, seq, len(s.answers))
			}
		}
		if err != nil {
			tr.end(rid)
			return nil, fmt.Errorf("recover %s: %w", s.name, err)
		}
		handles[i] = ds
	}
	tr.end(rid)
	res.ops += 1 + 2*len(sessions)
	if h := liveHeap(); h > res.heap {
		res.heap = h
	}
	for i, s := range sessions {
		if err := checkRecovered(handles[i], s); err != nil {
			res.failf("%s: %v", s.name, err)
		}
		res.ops += 1 + len(s.probs)
	}

	if tr != nil {
		first := sessions[0]
		res.layer["instantiate.matching_size"] = float64(first.size)
		res.layer["quality.h_ratio_end"] = runs[0].hRatios[len(runs[0].hRatios)-1]
		res.layer["wal.bytes"] = float64(cfs.walBytes.Load())
		res.layer["wal.snapshot_bytes"] = float64(cfs.otherBytes.Load())
		res.layer["wal.syncs"] = float64(cfs.syncs.Load())
		res.layer["wal.bytes_per_assert"] = float64(cfs.walBytes.Load()) / float64(len(res.steps))
		if err := probeSetup(tr, w.data.Network, rs, res.layer); err != nil {
			return nil, err
		}
		if err := probeReplay(tr, w.data.Network, rs, first.answers, res.layer); err != nil {
			return nil, err
		}
	}
	res.wall = time.Since(start)
	return res, nil
}

// checkRecovered compares a recovered session with what its annotator
// saw before the close: a history numbered 1..n and the same
// probability for every candidate.
func checkRecovered(ds *schemanet.DurableSession, want sessionRun) error {
	hist, err := ds.History()
	if err != nil {
		return fmt.Errorf("history: %w", err)
	}
	if len(hist) != len(want.answers) {
		return fmt.Errorf("history has %d records, want %d", len(hist), len(want.answers))
	}
	for i, r := range hist {
		if r.Seq != uint64(i+1) {
			return fmt.Errorf("history record %d has Seq %d, want %d", i, r.Seq, i+1)
		}
		if r.Approved != want.answers[i].yes {
			return fmt.Errorf("history record %d approved=%v, want %v", i, r.Approved, want.answers[i].yes)
		}
	}
	for c, p := range want.probs {
		got, err := ds.Probability(c)
		if err != nil {
			return fmt.Errorf("probability %d: %w", c, err)
		}
		if got != p {
			return fmt.Errorf("probability of %d is %v after recovery, %v before", c, got, p)
		}
	}
	return nil
}

// barrier holds goroutines at a checkpoint until every participant
// that has not left arrives.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int // participants still running
	waiting int
	gen     int
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) wait() {
	b.mu.Lock()
	defer b.mu.Unlock()
	gen := b.gen
	b.waiting++
	if b.waiting >= b.n {
		b.release()
		return
	}
	for gen == b.gen {
		b.cond.Wait()
	}
}

// leave withdraws a participant for good, so the others never wait for
// an annotator that stopped early.
func (b *barrier) leave() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.n--
	if b.waiting > 0 && b.waiting >= b.n {
		b.release()
	}
}

func (b *barrier) release() {
	b.waiting = 0
	b.gen++
	b.cond.Broadcast()
}

// countingFS wraps the store's filesystem seam to count WAL and
// snapshot bytes and fsyncs, and to record each file operation as a
// wal span nested in the store call that caused it. While routed, an
// operation on a session's files belongs to the track of the annotator
// that owns the session (stores never evict here, so only the owner
// touches them); otherwise it belongs to the main track.
type countingFS struct {
	inner wal.FS
	tr    *tracer
	root  string

	routed     atomic.Bool
	walBytes   atomic.Int64
	otherBytes atomic.Int64
	syncs      atomic.Int64
}

func (f *countingFS) setRouted(on bool) {
	if f != nil {
		f.routed.Store(on)
	}
}

func (f *countingFS) track(path string) int {
	if !f.routed.Load() {
		return 0
	}
	rel, err := filepath.Rel(f.root, path)
	if err != nil {
		return 0
	}
	var a, k int
	if _, err := fmt.Sscanf(strings.SplitN(rel, string(filepath.Separator), 2)[0], "a%d-s%d", &a, &k); err != nil {
		return 0
	}
	return a + 1
}

func (f *countingFS) span(path, name string) func() {
	id := f.tr.begin(f.track(path), name, -1)
	return func() { f.tr.end(id) }
}

func (f *countingFS) MkdirAll(dir string) error {
	end := f.span(dir, "wal.mkdir")
	defer end()
	return f.inner.MkdirAll(dir)
}

func (f *countingFS) ReadFile(name string) ([]byte, error) {
	end := f.span(name, "wal.read")
	defer end()
	return f.inner.ReadFile(name)
}

func (f *countingFS) Create(name string) (wal.File, error) {
	end := f.span(name, "wal.create")
	defer end()
	file, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &countingFile{inner: file, fs: f, name: name}, nil
}

func (f *countingFS) OpenAppend(name string) (wal.File, error) {
	end := f.span(name, "wal.open")
	defer end()
	file, err := f.inner.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &countingFile{inner: file, fs: f, name: name}, nil
}

func (f *countingFS) Rename(oldname, newname string) error {
	end := f.span(newname, "wal.rename")
	defer end()
	return f.inner.Rename(oldname, newname)
}

func (f *countingFS) Remove(name string) error {
	end := f.span(name, "wal.remove")
	defer end()
	return f.inner.Remove(name)
}

func (f *countingFS) SyncDir(dir string) error {
	end := f.span(dir, "wal.syncdir")
	defer end()
	f.syncs.Add(1)
	return f.inner.SyncDir(dir)
}

type countingFile struct {
	inner wal.File
	fs    *countingFS
	name  string
}

func (c *countingFile) Write(p []byte) (int, error) {
	end := c.fs.span(c.name, "wal.write")
	defer end()
	n, err := c.inner.Write(p)
	if filepath.Base(c.name) == "wal.log" {
		c.fs.walBytes.Add(int64(n))
	} else {
		c.fs.otherBytes.Add(int64(n))
	}
	return n, err
}

func (c *countingFile) Sync() error {
	end := c.fs.span(c.name, "wal.sync")
	defer end()
	c.fs.syncs.Add(1)
	return c.inner.Sync()
}

func (c *countingFile) Close() error {
	end := c.fs.span(c.name, "wal.close")
	defer end()
	return c.inner.Close()
}
