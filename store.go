package schemanet

import (
	"bytes"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"

	"schemanet/internal/wal"
)

// AssertionRecord is one durably logged assertion: who asserted which
// correspondence (by attribute full names), in which direction, and
// its position in the session's monotonic sequence. See internal/wal.
type AssertionRecord = wal.Record

// ErrStoreClosed reports an operation on a closed SessionStore (or a
// DurableSession handle whose store has been closed).
var ErrStoreClosed = errors.New("schemanet: session store closed")

// ErrSessionBusy reports an explicit Evict of a session that is
// mid-operation; retry once its callers finish.
var ErrSessionBusy = errors.New("schemanet: session busy")

const (
	snapshotFile = "snapshot.json"
	walFile      = "wal.log"

	// DefaultMaxOpen bounds the resident session pool when
	// StoreOptions.MaxOpen is zero.
	DefaultMaxOpen = 16
	// DefaultSnapshotEvery is the auto-compaction threshold (WAL
	// records since the last snapshot) when StoreOptions.SnapshotEvery
	// is zero.
	DefaultSnapshotEvery = 1024
)

// StoreOptions configures a SessionStore. The zero value selects a
// 16-session resident pool, one fsync per assert/batch ("batch"
// policy), and compaction every 1024 WAL records.
type StoreOptions struct {
	// Session configures every session the store opens (inference
	// mode, samples, seed, …). Use the same value across store
	// generations: recovery replays history under these options.
	Session *Options
	// MaxOpen bounds how many sessions stay resident in memory; the
	// least-recently-used idle session beyond it is compacted to disk
	// and evicted, and reopens transparently on next access. Sessions
	// with operations in flight are never evicted, so the bound can be
	// exceeded transiently under load. 0 means DefaultMaxOpen.
	MaxOpen int
	// Sync is the WAL sync policy: "always" (fsync per assertion),
	// "batch" or "" (fsync per Assert/AssertBatch call, the default),
	// or "none" (fsync only at snapshot, eviction, and close — a crash
	// may lose a suffix of acknowledged assertions, never a middle
	// slice).
	Sync string
	// SnapshotEvery compacts a session (snapshot + WAL truncation)
	// once this many records accumulate in its WAL, keeping recovery
	// cost bounded as history grows. 0 means DefaultSnapshotEvery.
	SnapshotEvery int
	// Logf receives recovery and eviction warnings (torn WAL tails
	// dropped, compaction deferrals). Defaults to log.Printf.
	Logf func(format string, args ...any)
	// FS overrides the filesystem — the fault-injection seam the crash
	// tests use. nil means the real filesystem.
	FS wal.FS
}

// SessionStore hosts many named durable reconciliation sessions over
// one network — the durability half of a reconciliation service. Each
// session owns a directory under the store root:
//
//	<root>/<name>/wal.log       append-only assertion WAL
//	<root>/<name>/snapshot.json session state at sequence N (atomic)
//
// Every Assert/AssertBatch on a session appends CRC-framed records to
// its WAL (fsynced per the Sync policy) after applying them in memory;
// periodic compaction writes a snapshot covering the whole history and
// truncates the WAL, so reopening a long-lived session replays one
// snapshot plus a short log tail. Recovery is torn-write tolerant: a
// truncated or corrupt WAL tail is detected by the CRC/length framing,
// dropped with a logged warning, and everything before it replays
// through the batch LoadSession path — at most one resampling round
// per touched component. A session recovered after a crash is
// bit-identical (under exact inference) to one that never crashed.
//
// The store keeps at most MaxOpen sessions resident; idle sessions
// beyond that are compacted and evicted, and any access through their
// DurableSession handles reopens them transparently. All methods are
// safe for concurrent use.
type SessionStore struct {
	net       *Network
	dir       string
	fs        wal.FS
	sopts     *Options
	policy    wal.SyncPolicy
	maxOpen   int
	snapEvery int
	logf      func(format string, args ...any)

	mu     sync.Mutex
	open   map[string]*liveSession
	clock  uint64
	closed bool
}

// liveSession is one resident session: the in-memory Session plus its
// WAL handle and full logical history. walMu serializes every mutation
// (memory apply + WAL append + compaction); reads go straight to the
// Session's lock-free snapshots. Lock order: SessionStore.mu may be
// held while taking walMu, never the reverse.
type liveSession struct {
	store   *SessionStore
	name    string
	dir     string
	s       *Session
	attrIdx map[string]AttrID

	walMu     sync.Mutex
	log       *wal.Log
	recs      []wal.Record // full history; recs[i].Seq == i+1
	snapCount int          // prefix of recs covered by the on-disk snapshot
	broken    bool         // a WAL append failed; heal (compact) before appending more
	retired   bool         // files closed; entry no longer usable

	refs    int    // in-flight operations, guarded by store.mu
	lastUse uint64 // LRU stamp, guarded by store.mu
}

// OpenStore opens (creating if needed) a session store rooted at dir
// for net. Sessions are loaded lazily on first access.
func OpenStore(dir string, net *Network, opts *StoreOptions) (*SessionStore, error) {
	var o StoreOptions
	if opts != nil {
		o = *opts
	}
	if net == nil || net.NumCandidates() == 0 {
		return nil, fmt.Errorf("schemanet: store: network has no candidate correspondences")
	}
	if o.MaxOpen < 0 || o.SnapshotEvery < 0 {
		return nil, fmt.Errorf("schemanet: store: MaxOpen and SnapshotEvery must be non-negative")
	}
	// Every session replays under these options, so reject bad ones
	// here rather than at each Session(name).
	so := o.Session.withDefaults()
	if err := so.validate(net); err != nil {
		return nil, fmt.Errorf("schemanet: store: StoreOptions.Session: %w", err)
	}
	policy, err := wal.ParsePolicy(o.Sync)
	if err != nil {
		return nil, fmt.Errorf("schemanet: store: %w", err)
	}
	st := &SessionStore{
		net:       net,
		dir:       dir,
		fs:        o.FS,
		sopts:     o.Session,
		policy:    policy,
		maxOpen:   o.MaxOpen,
		snapEvery: o.SnapshotEvery,
		logf:      o.Logf,
		open:      make(map[string]*liveSession),
	}
	if st.fs == nil {
		st.fs = wal.OS()
	}
	if st.maxOpen == 0 {
		st.maxOpen = DefaultMaxOpen
	}
	if st.snapEvery == 0 {
		st.snapEvery = DefaultSnapshotEvery
	}
	if st.logf == nil {
		st.logf = log.Printf
	}
	if err := st.fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("schemanet: store: creating %s: %w", dir, err)
	}
	return st, nil
}

// validSessionName rejects names that would escape the store root or
// collide with the store's own files.
func validSessionName(name string) error {
	if name == "" || len(name) > 128 {
		return fmt.Errorf("schemanet: store: invalid session name %q", name)
	}
	if name[0] == '.' || name[0] == '-' {
		return fmt.Errorf("schemanet: store: invalid session name %q", name)
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return fmt.Errorf("schemanet: store: invalid session name %q (want [A-Za-z0-9._-]+)", name)
		}
	}
	return nil
}

// Session returns a handle on the named session, creating its
// directory on first use or recovering it from snapshot + WAL. The
// handle stays valid across evictions: an evicted session reopens
// transparently on the handle's next call.
func (st *SessionStore) Session(name string) (*DurableSession, error) {
	ls, err := st.acquire(name)
	if err != nil {
		return nil, err
	}
	st.release(ls)
	return &DurableSession{store: st, name: name}, nil
}

// Resident returns how many sessions are currently held in memory.
func (st *SessionStore) Resident() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.open)
}

// Evict compacts the named session to disk and drops it from the
// resident pool. A session that is not resident is a no-op; a session
// with operations in flight returns ErrSessionBusy. Handles keep
// working — the next access reopens from disk.
func (st *SessionStore) Evict(name string) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return ErrStoreClosed
	}
	ls, ok := st.open[name]
	if !ok {
		return nil
	}
	if ls.refs > 0 {
		return fmt.Errorf("%w: %q has %d operation(s) in flight", ErrSessionBusy, name, ls.refs)
	}
	if err := ls.retire(); err != nil {
		return err
	}
	delete(st.open, name)
	return nil
}

// Close compacts and closes every resident session and shuts the store
// down; subsequent operations (including through existing handles)
// return ErrStoreClosed. Closing a closed store is a no-op. Operations
// in flight finish first — Close blocks on each session's write lock.
func (st *SessionStore) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return nil
	}
	st.closed = true
	var first error
	for name, ls := range st.open {
		if err := ls.retire(); err != nil && first == nil {
			first = fmt.Errorf("schemanet: store: closing session %q: %w", name, err)
		}
		delete(st.open, name)
	}
	return first
}

// acquire pins the named session resident (opening or recovering it if
// needed), bumps its LRU stamp, and returns it with a reference held.
func (st *SessionStore) acquire(name string) (*liveSession, error) {
	if err := validSessionName(name); err != nil {
		return nil, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return nil, ErrStoreClosed
	}
	ls, ok := st.open[name]
	if !ok {
		var err error
		ls, err = st.openLocked(name)
		if err != nil {
			return nil, err
		}
		st.open[name] = ls
	}
	ls.refs++
	st.clock++
	ls.lastUse = st.clock
	st.evictLocked()
	return ls, nil
}

func (st *SessionStore) release(ls *liveSession) {
	st.mu.Lock()
	defer st.mu.Unlock()
	ls.refs--
}

// evictLocked enforces the pool bound: while too many sessions are
// resident, the least-recently-used idle one is compacted and dropped.
// Sessions that refuse to retire safely are skipped (and retried on
// later acquires).
func (st *SessionStore) evictLocked() {
	var skip map[*liveSession]bool
	for len(st.open) > st.maxOpen {
		var victim *liveSession
		for _, ls := range st.open {
			if ls.refs > 0 || skip[ls] {
				continue
			}
			if victim == nil || ls.lastUse < victim.lastUse {
				victim = ls
			}
		}
		if victim == nil {
			return
		}
		if err := victim.retire(); err != nil {
			st.logf("schemanet: store: session %q: eviction deferred: %v", victim.name, err)
			if skip == nil {
				skip = make(map[*liveSession]bool)
			}
			skip[victim] = true
			continue
		}
		delete(st.open, victim.name)
	}
}

// openLocked loads (or creates) a session from its directory:
// snapshot, then WAL tail, replayed in one batch. Called with store.mu
// held — recovery cost is bounded by compaction, but it does serialize
// against other opens.
func (st *SessionStore) openLocked(name string) (*liveSession, error) {
	dir := filepath.Join(st.dir, name)
	if err := st.fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("schemanet: store: creating %s: %w", dir, err)
	}
	// Crash hygiene: half-written temporaries from a previous life.
	_ = st.fs.Remove(filepath.Join(dir, snapshotFile+".tmp"))
	_ = st.fs.Remove(filepath.Join(dir, walFile+".tmp"))

	// Snapshot, if any. Its Seq is the WAL sequence number it covers; a
	// plain Session.Save dropped in as snapshot.json (Seq 0) counts as
	// covering its own history — the supported migration path. A
	// Version 2 snapshot (a session that mutated its topology) carries
	// the interleaved operation stream; both forms normalize to records.
	var snapRecs []wal.Record
	snapSeq := uint64(0)
	data, err := st.fs.ReadFile(filepath.Join(dir, snapshotFile))
	switch {
	case err == nil:
		snap, derr := decodeSessionState(bytes.NewReader(data))
		if derr != nil {
			return nil, fmt.Errorf("schemanet: store: session %q: corrupt snapshot: %w", name, derr)
		}
		if snap.Version == 2 {
			snapRecs, derr = opsToRecords(snap.Ops)
			if derr != nil {
				return nil, fmt.Errorf("schemanet: store: session %q: corrupt snapshot: %w", name, derr)
			}
		} else {
			for i, sa := range snap.History {
				snapRecs = append(snapRecs, wal.Record{
					Seq: uint64(i + 1), Annotator: sa.Annotator,
					From: sa.From, To: sa.To, Approved: sa.Approved,
				})
			}
		}
		snapSeq = snap.Seq
		if snapSeq == 0 {
			snapSeq = uint64(len(snapRecs))
		}
		if snapSeq != uint64(len(snapRecs)) {
			return nil, fmt.Errorf("schemanet: store: session %q: snapshot covers seq %d but holds %d entries",
				name, snapSeq, len(snapRecs))
		}
	case os.IsNotExist(err):
	default:
		return nil, fmt.Errorf("schemanet: store: session %q: reading snapshot: %w", name, err)
	}

	l, walRecs, res, err := wal.Open(st.fs, dir, filepath.Join(dir, walFile), st.policy)
	if err != nil {
		return nil, fmt.Errorf("schemanet: store: session %q: %w", name, err)
	}
	if !res.Clean() {
		st.logf("schemanet: store: session %q: recovered WAL with damaged tail: %v", name, res.Tail)
	}

	// Stitch: snapshot prefix (seqs 1..snapSeq), then WAL records above
	// it, in strict sequence. Records the snapshot already covers are
	// dropped (a crash between snapshot write and WAL truncation leaves
	// that overlap); a sequence gap means records that were never
	// acknowledged durable — everything from the gap on is dropped.
	recs := snapRecs
	dirty := false // on-disk state needs a normalizing compaction
	for _, r := range walRecs {
		if r.Seq <= snapSeq {
			dirty = true
			continue
		}
		if r.Seq != uint64(len(recs))+1 {
			st.logf("schemanet: store: session %q: dropping %d WAL record(s) after sequence gap (%d after %d) — never acknowledged durable",
				name, len(walRecs), r.Seq, uint64(len(recs)))
			dirty = true
			break
		}
		recs = append(recs, r)
	}

	s, err := replaySessionOps(st.net, st.sopts, recordsToOps(recs))
	if err != nil {
		l.Close()
		return nil, fmt.Errorf("schemanet: store: session %q: %w", name, err)
	}
	l.SetLastSeq(snapSeq)
	ls := &liveSession{
		store: st, name: name, dir: dir,
		// attrIdx reflects the session's own (possibly grown) network,
		// not the store's base network.
		s: s, attrIdx: attrIndex(s.Network()),
		log: l, recs: recs, snapCount: min(int(snapSeq), len(recs)),
	}
	if dirty {
		// Normalize now: snapshot the stitched history and truncate the
		// WAL, so overlap/gap leftovers don't survive into the next
		// generation. On failure, gate appends until a compaction lands.
		if err := ls.compactLocked(); err != nil {
			st.logf("schemanet: store: session %q: deferred cleanup compaction: %v", name, err)
			ls.broken = true
		}
	}
	return ls, nil
}

// toSaved renders WAL records in saved-session form.
func toSaved(recs []wal.Record) []savedAssertion {
	if len(recs) == 0 {
		return nil
	}
	out := make([]savedAssertion, len(recs))
	for i, r := range recs {
		out[i] = savedAssertion{From: r.From, To: r.To, Approved: r.Approved, Annotator: r.Annotator}
	}
	return out
}

// recordsToOps renders the unified record history as a Version 2
// operation stream for replay.
func recordsToOps(recs []wal.Record) []savedOp {
	out := make([]savedOp, len(recs))
	for i, r := range recs {
		switch r.Kind {
		case wal.KindAddSchema:
			out[i] = savedOp{Kind: "add-schema", Schema: r.Schema, Attrs: r.Attrs}
		case wal.KindAddCandidates:
			cands := make([]savedCand, len(r.Cands))
			for j, c := range r.Cands {
				cands[j] = savedCand{From: c.From, To: c.To, Conf: c.Conf}
			}
			out[i] = savedOp{Kind: "add-candidates", Cands: cands}
		case wal.KindRetire:
			out[i] = savedOp{Kind: "retire", From: r.From, To: r.To}
		default:
			out[i] = savedOp{Kind: "assert", From: r.From, To: r.To, Approved: r.Approved, Annotator: r.Annotator}
		}
	}
	return out
}

// opsToRecords inverts recordsToOps for a Version 2 snapshot's
// operation stream, re-numbering from sequence 1.
func opsToRecords(ops []savedOp) ([]wal.Record, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	out := make([]wal.Record, len(ops))
	for i, op := range ops {
		rec := wal.Record{Seq: uint64(i + 1)}
		switch op.Kind {
		case "assert":
			rec.From, rec.To, rec.Approved, rec.Annotator = op.From, op.To, op.Approved, op.Annotator
		case "add-schema":
			rec.Kind, rec.Schema, rec.Attrs = wal.KindAddSchema, op.Schema, op.Attrs
		case "add-candidates":
			rec.Kind = wal.KindAddCandidates
			rec.Cands = make([]wal.CandRecord, len(op.Cands))
			for j, c := range op.Cands {
				rec.Cands[j] = wal.CandRecord{From: c.From, To: c.To, Conf: c.Conf}
			}
		case "retire":
			rec.Kind, rec.From, rec.To = wal.KindRetire, op.From, op.To
		default:
			return nil, fmt.Errorf("snapshot op %d: unknown kind %q", i, op.Kind)
		}
		out[i] = rec
	}
	return out, nil
}

// hasTopology reports whether the history holds any topology record —
// the trigger for Version 2 snapshots.
func hasTopology(recs []wal.Record) bool {
	for _, r := range recs {
		if r.Kind != wal.KindAssert {
			return true
		}
	}
	return false
}

// names renders candidate c by its attributes' full names and proves
// the pair resolves back to c on recovery (the guard Save applies);
// what names the refused operation for the error.
func (ls *liveSession) names(c int, what string) (from, to string, err error) {
	net := ls.s.Network()
	cand := net.Candidate(c)
	from, to = net.FullName(cand.A), net.FullName(cand.B)
	a, okA := ls.attrIdx[from]
	b, okB := ls.attrIdx[to]
	if !okA || !okB || net.CandidateIndex(a, b) != c {
		return "", "", fmt.Errorf("schemanet: store: session %q: candidate %d (%s ↔ %s) does not resolve back by name (ambiguous attribute name); refusing unrecoverable %s",
			ls.name, c, from, to, what)
	}
	return from, to, nil
}

// record renders candidate c as the next WAL record.
func (ls *liveSession) record(annotator string, c int, approved bool) (wal.Record, error) {
	if ls.s.Network().Retired(c) {
		// Checked before the resolve-back guard: a retired candidate no
		// longer resolves by name at all.
		return wal.Record{}, fmt.Errorf("schemanet: candidate %d: %w", c, ErrCandidateRetired)
	}
	from, to, err := ls.names(c, "assertion")
	if err != nil {
		return wal.Record{}, err
	}
	return wal.Record{
		Seq: uint64(len(ls.recs)) + 1, Annotator: annotator,
		From: from, To: to, Approved: approved,
	}, nil
}

// healLocked is the gate after a failed WAL append: no further records
// may be appended (they would land after torn bytes or a sequence gap
// and be unrecoverable) until a compaction has re-established a clean
// snapshot + empty WAL.
func (ls *liveSession) healLocked() error {
	if !ls.broken {
		return nil
	}
	if err := ls.compactLocked(); err != nil {
		return fmt.Errorf("schemanet: store: session %q: durability degraded (earlier append failed) and compaction still failing: %w",
			ls.name, err)
	}
	ls.broken = false
	return nil
}

// assert applies one assertion in memory, then appends it durably.
func (ls *liveSession) assert(annotator string, c int, approved bool) error {
	ls.walMu.Lock()
	defer ls.walMu.Unlock()
	if ls.retired {
		return ErrStoreClosed
	}
	if err := ls.healLocked(); err != nil {
		return err
	}
	if err := ls.s.checkCandidate(c); err != nil {
		return err
	}
	rec, err := ls.record(annotator, c, approved)
	if err != nil {
		return err
	}
	if err := ls.s.Assert(c, approved); err != nil {
		return err
	}
	ls.recs = append(ls.recs, rec)
	if err := ls.log.Append(rec); err != nil {
		ls.broken = true
		return fmt.Errorf("schemanet: store: session %q: assertion applied but not durably logged (will persist via next successful compaction): %w",
			ls.name, err)
	}
	ls.maybeCompactLocked()
	return nil
}

// assertBatch applies a batch atomically in memory (all-or-nothing, as
// Session.AssertBatch guarantees), then appends all its
// records with one sync under the "batch" policy.
func (ls *liveSession) assertBatch(annotator string, as []Assertion) error {
	if len(as) == 0 {
		return nil
	}
	ls.walMu.Lock()
	defer ls.walMu.Unlock()
	if ls.retired {
		return ErrStoreClosed
	}
	if err := ls.healLocked(); err != nil {
		return err
	}
	recs := make([]wal.Record, len(as))
	for i, a := range as {
		if err := ls.s.checkCandidate(a.Cand); err != nil {
			return fmt.Errorf("assertion %d: %w", i, err)
		}
		rec, err := ls.record(annotator, a.Cand, a.Approved)
		if err != nil {
			return err
		}
		rec.Seq += uint64(i)
		recs[i] = rec
	}
	if err := ls.s.AssertBatch(as); err != nil {
		return err
	}
	ls.recs = append(ls.recs, recs...)
	if err := ls.log.Append(recs...); err != nil {
		ls.broken = true
		return fmt.Errorf("schemanet: store: session %q: batch applied but not durably logged (will persist via next successful compaction): %w",
			ls.name, err)
	}
	ls.maybeCompactLocked()
	return nil
}

// appendTopo durably logs one already-applied topology record. The
// mutation is live in memory either way; a failed append trips the
// heal gate so the next successful compaction persists it.
func (ls *liveSession) appendTopo(rec wal.Record) error {
	ls.recs = append(ls.recs, rec)
	if err := ls.log.Append(rec); err != nil {
		ls.broken = true
		return fmt.Errorf("schemanet: store: session %q: topology change applied but not durably logged (will persist via next successful compaction): %w",
			ls.name, err)
	}
	ls.maybeCompactLocked()
	return nil
}

// addSchema registers a new schema on the durable session: applied in
// memory, then appended to the WAL as a KindAddSchema record.
func (ls *liveSession) addSchema(name string, attrs []string) error {
	ls.walMu.Lock()
	defer ls.walMu.Unlock()
	if ls.retired {
		return ErrStoreClosed
	}
	if err := ls.healLocked(); err != nil {
		return err
	}
	// AddSchema rejects duplicate attribute names (which would render
	// ambiguously — recovery resolves by full name) before any state
	// changes.
	if err := ls.s.AddSchema(name, attrs...); err != nil {
		return err
	}
	ls.attrIdx = attrIndex(ls.s.Network())
	return ls.appendTopo(wal.Record{
		Seq: uint64(len(ls.recs)) + 1, Kind: wal.KindAddSchema,
		Schema: name, Attrs: append([]string(nil), attrs...),
	})
}

// addCandidates appends candidate correspondences to the durable
// session: applied in memory, then logged as one KindAddCandidates
// record (names resolve against the already-grown network).
func (ls *liveSession) addCandidates(cs []Correspondence) error {
	ls.walMu.Lock()
	defer ls.walMu.Unlock()
	if ls.retired {
		return ErrStoreClosed
	}
	if err := ls.healLocked(); err != nil {
		return err
	}
	rec := wal.Record{Seq: uint64(len(ls.recs)) + 1, Kind: wal.KindAddCandidates}
	if err := ls.s.AddCandidates(cs); err != nil {
		return err
	}
	net := ls.s.Network()
	rec.Cands = make([]wal.CandRecord, len(cs))
	for i, c := range cs {
		cc := c.Canonical()
		rec.Cands[i] = wal.CandRecord{From: net.FullName(cc.A), To: net.FullName(cc.B), Conf: cc.Confidence}
	}
	return ls.appendTopo(rec)
}

// retireCandidate withdraws candidate c from the durable session:
// applied in memory, then logged as a KindRetire record. The pair names
// are captured (and proven resolvable) before the tombstone lands.
func (ls *liveSession) retireCandidate(c int) error {
	ls.walMu.Lock()
	defer ls.walMu.Unlock()
	if ls.retired {
		return ErrStoreClosed
	}
	if err := ls.healLocked(); err != nil {
		return err
	}
	if err := ls.s.checkCandidate(c); err != nil {
		return err
	}
	from, to, err := ls.names(c, "retire")
	if err != nil {
		return err
	}
	if err := ls.s.RetireCandidate(c); err != nil {
		return err
	}
	return ls.appendTopo(wal.Record{
		Seq: uint64(len(ls.recs)) + 1, Kind: wal.KindRetire, From: from, To: to,
	})
}

func (ls *liveSession) maybeCompactLocked() {
	if len(ls.recs)-ls.snapCount < ls.store.snapEvery {
		return
	}
	// The triggering assertion is already durable in the WAL; a failed
	// compaction costs recovery time, not data.
	if err := ls.compactLocked(); err != nil {
		ls.store.logf("schemanet: store: session %q: auto-compaction failed: %v", ls.name, err)
	}
}

// compactLocked writes a snapshot covering the entire history —
// write-sync-rename-syncdir, so a crash leaves either the old or the
// new snapshot — and only then truncates the WAL. A crash between the
// two steps leaves the snapshot plus a fully-covered WAL; recovery
// drops the overlap by sequence number. No committed assertion is ever
// lost.
func (ls *liveSession) compactLocked() error {
	st := ls.store
	state := sessionState{
		Version:    1,
		Seq:        uint64(len(ls.recs)),
		Candidates: ls.s.Network().NumCandidates(),
		History:    toSaved(ls.recs),
	}
	if hasTopology(ls.recs) {
		state.Version, state.History, state.Ops = 2, nil, recordsToOps(ls.recs)
	}
	buf, err := marshalSessionState(state)
	if err != nil {
		return err
	}
	if err := wal.AtomicWriteFile(st.fs, ls.dir, filepath.Join(ls.dir, snapshotFile), buf); err != nil {
		return fmt.Errorf("schemanet: store: session %q: writing snapshot: %w", ls.name, err)
	}
	ls.snapCount = len(ls.recs)
	if err := ls.log.Reset(uint64(len(ls.recs))); err != nil {
		// Snapshot is durable; the stale WAL only costs recovery a
		// dedup pass. Appends will fail until a Reset lands, tripping
		// the heal gate.
		return fmt.Errorf("schemanet: store: session %q: truncating WAL after snapshot: %w", ls.name, err)
	}
	return nil
}

// retire compacts the session and closes its files — eviction and
// shutdown. It refuses only when closing now would lose state: memory
// holds records the WAL never accepted and compaction still fails, or
// the WAL cannot be flushed. Called with store.mu held.
func (ls *liveSession) retire() error {
	ls.walMu.Lock()
	defer ls.walMu.Unlock()
	if ls.retired {
		return nil
	}
	if ls.broken {
		if err := ls.healLocked(); err != nil {
			return err
		}
	} else if err := ls.compactLocked(); err != nil {
		// Everything acknowledged is in the WAL; make sure it is
		// physically down before letting go of the memory copy.
		if serr := ls.log.Sync(); serr != nil {
			return fmt.Errorf("schemanet: store: session %q: cannot retire safely: compaction failed (%v) and WAL sync failed: %w",
				ls.name, err, serr)
		}
		ls.store.logf("schemanet: store: session %q: retiring with stale snapshot (compaction failed: %v); WAL is synced", ls.name, err)
	}
	if err := ls.log.Close(); err != nil {
		ls.store.logf("schemanet: store: session %q: closing WAL: %v", ls.name, err)
	}
	ls.retired = true
	return nil
}

// DurableSession is a handle on one named session in a SessionStore:
// a Session whose assertions are durably logged. Reads (Probability,
// Uncertainty, Suggest, …) are served from the resident Session as on
// any Session; writes apply in memory first and then append to the
// session's WAL, serialized per session — the WAL is a single append
// stream, so unlike a bare Session, two writes to the same durable
// session do not proceed in parallel even on disjoint components
// (batches still fan out internally).
// An Assert/AssertBatch that returns nil is durable to the degree the
// store's Sync policy promises.
//
// Handles are cheap, stateless, and safe for concurrent use; they
// survive eviction (the session transparently reopens from disk) and
// fail with ErrStoreClosed once the store is closed.
type DurableSession struct {
	store *SessionStore
	name  string
}

// Name returns the session's store name.
func (ds *DurableSession) Name() string { return ds.name }

// Network returns the session's network — the store's base network plus
// any schemas and candidates this session added (each durable session
// owns a private copy that its topology mutations grow).
func (ds *DurableSession) Network() *Network {
	net := ds.store.net
	_ = ds.with(func(ls *liveSession) error {
		net = ls.s.Network()
		return nil
	})
	return net
}

// with pins the session resident, runs fn, and releases.
func (ds *DurableSession) with(fn func(*liveSession) error) error {
	ls, err := ds.store.acquire(ds.name)
	if err != nil {
		return err
	}
	defer ds.store.release(ls)
	return fn(ls)
}

// Assert durably integrates an expert statement about candidate c,
// with no annotator attribution. See AssertAs.
func (ds *DurableSession) Assert(c int, correct bool) error {
	return ds.AssertAs("", c, correct)
}

// AssertAs durably integrates annotator's statement about candidate c:
// applied to the in-memory session, appended to the WAL, fsynced per
// the store's Sync policy, in that order — an error after the words
// "applied but not durably logged" means the assertion is live in
// memory and will be persisted by the next successful compaction. The
// annotator id is recorded in the durable history (the per-annotator
// assertion log quality-aware matching learns from) and does not
// affect inference.
func (ds *DurableSession) AssertAs(annotator string, c int, correct bool) error {
	return ds.with(func(ls *liveSession) error { return ls.assert(annotator, c, correct) })
}

// AssertBatch durably integrates many assertions at once with no
// annotator attribution; see AssertBatchAs.
func (ds *DurableSession) AssertBatch(as []Assertion) error {
	return ds.AssertBatchAs("", as)
}

// AssertBatchAs durably integrates a batch from one annotator:
// validated and applied atomically in memory (a bad entry rejects the
// whole batch with no state change and nothing logged), then appended
// to the WAL as consecutive records — one fsync for the whole batch
// under the default "batch" policy.
func (ds *DurableSession) AssertBatchAs(annotator string, as []Assertion) error {
	return ds.with(func(ls *liveSession) error { return ls.assertBatch(annotator, as) })
}

// AddSchema registers a new schema on the durable session (see
// Session.AddSchema): applied to the in-memory session, then appended
// to the WAL as a topology record, so recovery re-grows the network at
// exactly this point of the history.
func (ds *DurableSession) AddSchema(name string, attrs ...string) error {
	return ds.with(func(ls *liveSession) error { return ls.addSchema(name, attrs) })
}

// AddCandidates appends candidate correspondences to the durable
// session (see Session.AddCandidates), durably logged as one topology
// record.
func (ds *DurableSession) AddCandidates(correspondences []Correspondence) error {
	return ds.with(func(ls *liveSession) error { return ls.addCandidates(correspondences) })
}

// RetireCandidate withdraws candidate c from the durable session (see
// Session.RetireCandidate), durably logged as a topology record.
func (ds *DurableSession) RetireCandidate(c int) error {
	return ds.with(func(ls *liveSession) error { return ls.retireCandidate(c) })
}

// Suggest returns the most informative unasserted candidate, from the
// resident session's published snapshots.
func (ds *DurableSession) Suggest() (c int, ok bool) {
	var gc int
	var gok bool
	if err := ds.with(func(ls *liveSession) error {
		gc, gok = ls.s.Suggest()
		return nil
	}); err != nil {
		return 0, false
	}
	return gc, gok
}

// Probability returns the current probability of candidate c.
func (ds *DurableSession) Probability(c int) (float64, error) {
	var p float64
	err := ds.with(func(ls *liveSession) error {
		var err error
		p, err = ls.s.Probability(c)
		return err
	})
	return p, err
}

// Uncertainty returns the network uncertainty H(C, P) (Equation 3).
func (ds *DurableSession) Uncertainty() (float64, error) {
	var h float64
	err := ds.with(func(ls *liveSession) error {
		h = ls.s.Uncertainty()
		return nil
	})
	return h, err
}

// Effort returns the fraction of candidates asserted so far.
func (ds *DurableSession) Effort() (float64, error) {
	var e float64
	err := ds.with(func(ls *liveSession) error {
		e = ls.s.Effort()
		return nil
	})
	return e, err
}

// Describe renders candidate c (a placeholder when out of universe).
func (ds *DurableSession) Describe(c int) string {
	out := fmt.Sprintf("<unknown candidate %d>", c)
	_ = ds.with(func(ls *liveSession) error {
		out = ls.s.Describe(c)
		return nil
	})
	return out
}

// Violations returns the number of distinct constraint violations
// among the raw candidate correspondences.
func (ds *DurableSession) Violations() (int, error) {
	var v int
	err := ds.with(func(ls *liveSession) error {
		v = ls.s.Violations()
		return nil
	})
	return v, err
}

// Instantiate derives a trusted matching from the current state.
func (ds *DurableSession) Instantiate() (*Matching, error) {
	var m *Matching
	err := ds.with(func(ls *liveSession) error {
		m = ls.s.Instantiate()
		return nil
	})
	return m, err
}

// History returns the session's durable assertion history in order —
// the per-annotator audit log. The slice is a copy.
func (ds *DurableSession) History() ([]AssertionRecord, error) {
	var out []AssertionRecord
	err := ds.with(func(ls *liveSession) error {
		ls.walMu.Lock()
		defer ls.walMu.Unlock()
		out = append(out, ls.recs...)
		return nil
	})
	return out, err
}

// Seq returns the sequence number of the last recorded assertion (0
// for a fresh session).
func (ds *DurableSession) Seq() (uint64, error) {
	var seq uint64
	err := ds.with(func(ls *liveSession) error {
		ls.walMu.Lock()
		defer ls.walMu.Unlock()
		seq = uint64(len(ls.recs))
		return nil
	})
	return seq, err
}

// Compact snapshots the session now and truncates its WAL.
func (ds *DurableSession) Compact() error {
	return ds.with(func(ls *liveSession) error {
		ls.walMu.Lock()
		defer ls.walMu.Unlock()
		if ls.retired {
			return ErrStoreClosed
		}
		if err := ls.compactLocked(); err != nil {
			return err
		}
		ls.broken = false
		return nil
	})
}

// Sync forces the session's WAL to disk — the manual durability point
// under the "none" policy.
func (ds *DurableSession) Sync() error {
	return ds.with(func(ls *liveSession) error {
		ls.walMu.Lock()
		defer ls.walMu.Unlock()
		if ls.retired {
			return ErrStoreClosed
		}
		return ls.log.Sync()
	})
}
