package schemanet

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"

	"schemanet/internal/wal"
)

// sessionState is the serialized form of a session's operation log.
// Version 1 is the assertion history in order; Version 2 — written
// whenever the log holds a topology mutation (AddSchema,
// AddCandidates, RetireCandidate) — is the full interleaved operation
// stream, so replay reconstructs the network growth between the
// assertions exactly as it happened. Probabilities are not persisted —
// they are recomputed deterministically from the network, the options,
// and the replayed operations. A session that never changed topology
// still writes Version 1, so files stay readable by older loaders.
//
// The same format doubles as the SessionStore's snapshot file: there,
// Seq records the WAL sequence number the snapshot covers (recovery
// drops WAL records at or below it). Plain Session.Save leaves Seq
// zero — a snapshot is always also a loadable saved session. Entries
// carry the asserting annotator either way.
type sessionState struct {
	Version    int              `json:"version"`
	Seq        uint64           `json:"seq,omitempty"`
	Candidates int              `json:"candidates"`
	History    []savedAssertion `json:"history,omitempty"`
	// Ops is the Version 2 payload: assertions and topology mutations in
	// arrival order. History is empty when Ops is present.
	Ops []wal.Record `json:"ops,omitempty"`
}

// savedAssertion is one Version 1 history entry. It references a
// correspondence by its attribute names so saved sessions survive
// candidate reordering across versions.
type savedAssertion struct {
	From      string `json:"from"`
	To        string `json:"to"`
	Approved  bool   `json:"approved"`
	Annotator string `json:"annotator,omitempty"`
}

// encodeLog renders an operation log in the saved-session file form:
// Version 1 when the log holds only assertions, Version 2 otherwise.
// seq is the WAL sequence number a store snapshot covers; Save passes 0.
func encodeLog(log []wal.Record, seq uint64, candidates int) ([]byte, error) {
	st := sessionState{Version: 1, Seq: seq, Candidates: candidates}
	if slices.ContainsFunc(log, func(r wal.Record) bool { return r.Kind != wal.KindAssert }) {
		st.Version, st.Ops = 2, log
	} else {
		st.History = make([]savedAssertion, len(log))
		for i, r := range log {
			st.History[i] = savedAssertion{From: r.From, To: r.To, Approved: r.Approved, Annotator: r.Annotator}
		}
	}
	buf, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("schemanet: encoding session: %w", err)
	}
	return append(buf, '\n'), nil
}

// decodeLog parses a saved session or store snapshot (either version)
// into its operation log, numbered from Seq 1, and the WAL sequence
// number it covers (0 for a plain Save). JSON-level failures carry
// their byte offset.
func decodeLog(r io.Reader) (log []wal.Record, seq uint64, err error) {
	var st sessionState
	if err := json.NewDecoder(r).Decode(&st); err != nil {
		var syn *json.SyntaxError
		var typ *json.UnmarshalTypeError
		switch {
		case errors.As(err, &syn):
			return nil, 0, fmt.Errorf("schemanet: decoding session at byte offset %d: %w", syn.Offset, err)
		case errors.As(err, &typ):
			return nil, 0, fmt.Errorf("schemanet: decoding session at byte offset %d, field %q: %w", typ.Offset, typ.Field, err)
		default:
			return nil, 0, fmt.Errorf("schemanet: decoding session: %w", err)
		}
	}
	switch st.Version {
	case 1:
		log = make([]wal.Record, len(st.History))
		for i, sa := range st.History {
			log[i] = wal.Record{From: sa.From, To: sa.To, Approved: sa.Approved, Annotator: sa.Annotator}
		}
	case 2:
		log = st.Ops
	default:
		return nil, 0, fmt.Errorf("schemanet: unsupported session version %d", st.Version)
	}
	for i := range log {
		log[i].Seq = uint64(i + 1)
	}
	return log, st.Seq, nil
}

// Save writes the session's operation log so reconciliation can resume
// later (see LoadSession). The pay-as-you-go workflow spans days in
// practice; the expert's assertions are the only state worth keeping.
//
// Save validates before writing: every asserted candidate must resolve
// from its attribute names back to itself (an ambiguous FullName — two
// attributes sharing a printed name — would make the file
// unloadable). On any error nothing is written to w: the state is
// marshaled in memory and emitted with a single Write, so a failed
// Save can never leave a half-written session file behind. Concurrent
// operations are excluded from the saved log, not torn: Save copies the
// log under the locks that order its appends.
func (s *Session) Save(w io.Writer) error {
	s.topoMu.RLock()
	net := s.pmn.Network()
	idx := attrIndex(net)
	s.feedMu.Lock()
	var err error
	for i, a := range s.pmn.Feedback().History() {
		if err = resolveBack(net, idx, a.Cand); err != nil {
			err = fmt.Errorf("schemanet: save: history entry %d: %w", i, err)
			break
		}
	}
	log, n := slices.Clone(s.log), net.NumCandidates()
	s.feedMu.Unlock()
	s.topoMu.RUnlock()
	if err != nil {
		return err
	}
	buf, err := encodeLog(log, 0, n)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// resolveBack proves that candidate c's attribute full names resolve
// back to c through idx (see attrIndex), so a log that names c replays
// onto c. Save checks every asserted candidate with it; the
// SessionStore checks each candidate an operation names before
// applying it.
func resolveBack(net *Network, idx map[string]AttrID, c int) error {
	cand := net.Candidate(c)
	from, to := net.FullName(cand.A), net.FullName(cand.B)
	if net.CandidateIndex(idx[from], idx[to]) != c {
		return fmt.Errorf("candidate %d (%s ↔ %s) does not resolve back by name (ambiguous attribute name)", c, from, to)
	}
	return nil
}

// attrIndex maps every attribute's full name to its id.
func attrIndex(net *Network) map[string]AttrID {
	idx := make(map[string]AttrID, net.NumAttributes())
	for _, sch := range net.Schemas() {
		for _, a := range sch.Attrs {
			idx[net.FullName(a)] = a
		}
	}
	return idx
}

// resolvePair resolves the attribute full names of log record i to a
// candidate of net. Errors name the record and the offending field, so
// a corrupt record in a large file is diagnosable without a hex dump.
func resolvePair(net *Network, idx map[string]AttrID, i int, from, to string) (int, error) {
	resolve := func(field, name string) (AttrID, error) {
		if name == "" {
			return 0, fmt.Errorf("session entry %d, field %q: empty attribute name", i, field)
		}
		a, ok := idx[name]
		if !ok {
			return 0, fmt.Errorf("session entry %d, field %q: unknown attribute %q", i, field, name)
		}
		return a, nil
	}
	a, err := resolve("from", from)
	if err != nil {
		return 0, err
	}
	b, err := resolve("to", to)
	if err != nil {
		return 0, err
	}
	c := net.CandidateIndex(a, b)
	if c < 0 {
		return 0, fmt.Errorf("session entry %d: %s ↔ %s is not a candidate correspondence", i, from, to)
	}
	return c, nil
}

// replayLog rebuilds a session for net from an operation log.
// Topology records go through the same mutators a live session uses,
// and each run of assertions between two of them is resolved against
// the network of that moment and batch-applied: view-maintained first,
// then each touched component refilled and recomputed once — at most
// one resampling round per touched component per run. Annotators carry
// into the rebuilt session's log. Under exact inference the result is
// bit-identical to the live session (assertion filtering is
// order-independent within a run); rebuilt components draw their
// content-derived sampler streams exactly as the live mutation did.
// LoadSession and the SessionStore's recovery both restore through
// this one path.
func replayLog(net *Network, opts *Options, log []wal.Record) (*Session, error) {
	s, err := NewSession(net, opts)
	if err != nil {
		return nil, err
	}
	idx := attrIndex(s.pmn.Network())
	first := make(map[int]int) // candidate → log index of its assertion
	var batch []Assertion
	var annotators []string
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		err := s.assertBatch(batch, annotators)
		batch, annotators = batch[:0], annotators[:0]
		if err != nil {
			return fmt.Errorf("schemanet: replaying session history: %w", err)
		}
		return nil
	}
	for i, r := range log {
		if r.Kind == wal.KindAssert {
			c, err := resolvePair(s.pmn.Network(), idx, i, r.From, r.To)
			if err != nil {
				return nil, fmt.Errorf("schemanet: %w", err)
			}
			if j, dup := first[c]; dup {
				return nil, fmt.Errorf("schemanet: session entry %d: duplicate assertion for %s ↔ %s (first at entry %d)",
					i, r.From, r.To, j)
			}
			first[c] = i
			batch = append(batch, Assertion{Cand: c, Approved: r.Approved})
			annotators = append(annotators, r.Annotator)
			continue
		}
		if err := flush(); err != nil {
			return nil, err
		}
		if err := replayTopology(s, idx, i, r); err != nil {
			return nil, err
		}
		if r.Kind == wal.KindAddSchema {
			idx = attrIndex(s.pmn.Network())
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return s, nil
}

// replayTopology applies topology record i of a log through the live
// mutator, resolving its names through idx.
func replayTopology(s *Session, idx map[string]AttrID, i int, r wal.Record) error {
	var err error
	switch r.Kind {
	case wal.KindAddSchema:
		err = s.AddSchema(r.Schema, r.Attrs...)
	case wal.KindAddCandidates:
		cs := make([]Correspondence, len(r.Cands))
		for j, sc := range r.Cands {
			a, oka := idx[sc.From]
			b, okb := idx[sc.To]
			if !oka || !okb {
				return fmt.Errorf("schemanet: session entry %d, candidate %d: unknown attribute in %q ↔ %q", i, j, sc.From, sc.To)
			}
			cs[j] = Correspondence{A: a, B: b, Confidence: sc.Conf}
		}
		err = s.AddCandidates(cs)
	case wal.KindRetire:
		c, rerr := resolvePair(s.pmn.Network(), idx, i, r.From, r.To)
		if rerr != nil {
			return fmt.Errorf("schemanet: %w", rerr)
		}
		err = s.RetireCandidate(c)
	}
	if err != nil {
		return fmt.Errorf("schemanet: session entry %d: %w", i, err)
	}
	return nil
}

// LoadSession builds a fresh session for net and replays the operation
// log previously written by Save (or a SessionStore snapshot). The
// network must contain every asserted correspondence (same or
// compatible candidate set).
//
// The replayed assertions are batch-applied: the whole history is
// view-maintained first and each touched component is refilled and
// recomputed once at the end, instead of paying a full
// view-maintain + resample + recompute round per history entry as
// replaying through Session.Assert would. Under exact inference the
// result is identical to a step-by-step replay; with sampled
// probabilities it is statistically equivalent (the estimates come
// from fresh samples either way). Annotator ids recorded in the file
// carry into the restored session, so a later Save keeps them.
//
// Per-component inference modes are derived state and are not
// persisted: the batch replay reconstructs them deterministically.
// Under Options.Inference = "auto", whether a component serves exact
// probabilities depends only on its accumulated feedback and the
// budget — free-candidate counts only ever shrink and the budgeted
// enumeration probe is deterministic — so the final mode (and, for
// exact components, the bit-exact probabilities) of the restored
// session match the saved one even when promotions happened mid-session
// rather than at replay time.
//
// A Version 2 file (written by a session that mutated its topology)
// replays against the network the session STARTED from: pass the same
// base network, and the recorded AddSchema / AddCandidates /
// RetireCandidate operations re-grow it — interleaved with the
// assertions in arrival order — to reconstruct the final session.
//
// Decoder errors carry positional context: the byte offset for JSON
// syntax and type failures, the entry index and field for records
// that do not resolve against net.
func LoadSession(net *Network, opts *Options, r io.Reader) (*Session, error) {
	log, _, err := decodeLog(r)
	if err != nil {
		return nil, err
	}
	return replayLog(net, opts, log)
}
