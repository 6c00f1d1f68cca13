package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one step share Step; Parent is the span that was
// open on the same track when this one began (0 for a root). Probe
// spans time side calls the benchmark makes only to attribute set-up
// work to a layer; they are kept in the trace but are not part of the
// run, so self-time aggregation skips them.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Track  int    `json:"track"`
	Step   int    `json:"step"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Probe  bool   `json:"probe,omitempty"`
}

func (s *span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A track is one
// goroutine of the workload (the main one, or one annotator); spans on a
// track nest strictly. A nil *tracer records nothing, so untraced runs
// pay one nil check per call site.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []span
	stacks map[int][]int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), stacks: make(map[int][]int)}
}

// begin opens a span on track and returns its id.
func (t *tracer) begin(track int, name string, step int) int { return t.open(track, name, step, false) }

// probe opens a span on the main track that self-time aggregation
// skips; see span.
func (t *tracer) probe(name string, step int) int { return t.open(0, name, step, true) }

func (t *tracer) open(track int, name string, step int, probe bool) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	parent := 0
	if st := t.stacks[track]; len(st) > 0 {
		parent = st[len(st)-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Track: track, Step: step, Start: now, Probe: probe})
	t.stacks[track] = append(t.stacks[track], id)
	return id
}

// end closes the span id, which must be the innermost open span of its
// track.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	st := t.stacks[s.Track]
	t.stacks[s.Track] = st[:len(st)-1]
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTime aggregates per layer the time its spans were open minus the
// part of that time their child spans cover. Children of a span run on
// its track, one after another, so the covered part is the sum of the
// children's durations. Probe spans and unfinished spans are skipped.
func selfTime(spans []span) map[string]time.Duration {
	byID := make(map[int]*span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	out := make(map[string]time.Duration)
	for i := range spans {
		s := &spans[i]
		if s.Probe || s.End == 0 {
			continue
		}
		out[s.layer()] += s.dur()
		if p := byID[s.Parent]; p != nil && !p.Probe {
			out[p.layer()] -= s.dur()
		}
	}
	return out
}

// durations returns the durations of the finished spans called name;
// loop keeps only spans of loop steps (step id 1 and up), leaving out
// set-up's first Suggest.
func durations(spans []span, name string, loop bool) []time.Duration {
	var out []time.Duration
	for i := range spans {
		s := &spans[i]
		if s.Name == name && s.End != 0 && (!loop || s.Step >= 1) {
			out = append(out, s.dur())
		}
	}
	return out
}

// writeSpans writes spans as JSON lines to dir/name and returns the
// path.
func writeSpans(dir, name string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("creating trace directory: %w", err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("creating trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return "", fmt.Errorf("writing trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("writing trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("closing trace file: %w", err)
	}
	return path, nil
}
