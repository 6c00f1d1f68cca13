package schemanet_test

// Native fuzz target for the session_io decoder: LoadSession consumes
// externally produced files (saved sessions travel between machines and
// versions, and a SessionStore snapshot is a saved session too), so
// arbitrary bytes must produce an error or a working session — never a
// panic, and never a session whose invariants are broken. Run
// continuously with `make fuzz`; the seed corpus mirrors the
// handwritten decoder test cases plus a genuine Save output and store
// snapshots of both versions.

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"schemanet"
)

func FuzzLoadSession(f *testing.F) {
	net, truth := videoNet(f)

	// Seeds: every malformed-input case the decoder tests pin down…
	for _, seed := range []string{
		`{`,
		`{"version": 99}`,
		`{"history":[]}`,
		`{"version":1,"history":[{"from":"X.y","to":"Z.w","approved":true}]}`,
		`{"version":1,"history":[{"from":"Nope.productionDate","to":"BBC.date","approved":true}]}`,
		`{"version":1,"history":[{"from":"EoverI.productionDate","to":"BBC.name","approved":true}]}`,
		`{"version":1,"history":[
			{"from":"BBC.date","to":"DVDizzy.releaseDate","approved":true},
			{"from":"BBC.date","to":"DVDizzy.releaseDate","approved":false}]}`,
		`[]`, `null`, `0`, `""`, "{}",
	} {
		f.Add([]byte(seed))
	}
	// …plus a well-formed save from a real session, so mutations explore
	// the valid-prefix neighborhood.
	s, err := schemanet.NewSession(net, &schemanet.Options{Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if c, ok := s.Suggest(); ok {
			if err := s.Assert(c, truth.ContainsCorrespondence(net.Candidate(c))); err != nil {
				f.Fatal(err)
			}
		}
	}
	var saved strings.Builder
	if err := s.Save(&saved); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(saved.String()))
	// …and store snapshots: Version 2 (grown network) and Version 1,
	// both with seq and annotators.
	snap, err := os.ReadFile(filepath.Join("testdata", "formats", "store_snapshot.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snap)
	f.Add([]byte(`{"version":1,"seq":2,"candidates":5,"history":[
		{"from":"EoverI.productionDate","to":"BBC.date","approved":true,"annotator":"alice"},
		{"from":"BBC.date","to":"DVDizzy.screenDate","approved":false,"annotator":"bob"}]}`))

	opts := &schemanet.Options{Seed: 7}
	save := func(t *testing.T, s *schemanet.Session) []byte {
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatalf("Save of a loaded session: %v", err)
		}
		return buf.Bytes()
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		restored, err := schemanet.LoadSession(net, opts, bytes.NewReader(data))
		if err != nil {
			return // rejected input is the expected outcome
		}
		// Accepted input re-saves to a file that loads to the same log.
		resaved := save(t, restored)
		again, err := schemanet.LoadSession(net, opts, bytes.NewReader(resaved))
		if err != nil {
			t.Fatalf("re-saved file rejected: %v\ninput %q\nre-saved %s", err, data, resaved)
		}
		if got := save(t, again); !bytes.Equal(got, resaved) {
			t.Fatalf("log changed across a save/load round:\n%s\nvs\n%s", got, resaved)
		}
		// Accepted input must yield a coherent session: finite non-negative
		// uncertainty, in-range probabilities, a usable suggest/assert loop.
		if h := restored.Uncertainty(); math.IsNaN(h) || math.IsInf(h, 0) || h < 0 {
			t.Fatalf("uncertainty %v from accepted input %q", h, data)
		}
		for c := 0; c < net.NumCandidates(); c++ {
			p, err := restored.Probability(c)
			if err != nil || p < 0 || p > 1 {
				t.Fatalf("p(%d) = %v (%v) from accepted input %q", c, p, err, data)
			}
		}
		if c, ok := restored.Suggest(); ok {
			if err := restored.Assert(c, true); err != nil {
				t.Fatalf("suggested candidate %d rejected: %v", c, err)
			}
		}
	})
}

// FuzzDecodeDataset feeds arbitrary bytes through the path a dataset
// file takes in cmd/reconcile -in: DecodeDataset, then NewSession and a
// short Suggest/Assert/Instantiate loop. Any input must end in an error
// or a working session — never a panic.
func FuzzDecodeDataset(f *testing.F) {
	for _, seed := range []string{
		`{"schemas":[{"name":"S","attributes":[""]}]}`,
		`{"schemas":[{"name":"S","attributes":["a","a"]}]}`,
		`{"schemas":[{"name":"a","attributes":["p"]}],"edges":[["a","zzz"]]}`,
		`{"schemas":[{"name":"a","attributes":["p","q"]},{"name":"b","attributes":["p","q"]}],"edges":[["a","b"]],
		  "candidates":[{"from":"a.p","to":"b.p","confidence":0.9},{"from":"a.p","to":"b.q","confidence":0.4},
		                {"from":"a.q","to":"b.q","confidence":0.8}],
		  "ground_truth":[["a.p","b.p"]]}`,
		`{"schemas":[{"name":"a","attributes":["x"]},{"name":"b","attributes":["x"]},{"name":"c","attributes":["x"]}],
		  "edges":[["a","b"],["b","c"],["a","c"]],
		  "candidates":[{"from":"a.x","to":"b.x","confidence":0.7},{"from":"b.x","to":"c.x","confidence":0.6},
		                {"from":"a.x","to":"c.x","confidence":0.2}]}`,
		`[]`, `null`, `{}`, `{`,
	} {
		f.Add([]byte(seed))
	}
	opts := &schemanet.Options{Seed: 3, Samples: 40}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := schemanet.DecodeDataset(bytes.NewReader(data))
		if err != nil {
			return
		}
		s, err := schemanet.NewSession(d.Network, opts)
		if err != nil {
			return
		}
		for i := 0; i < 3; i++ {
			c, ok := s.Suggest()
			if !ok {
				break
			}
			if err := s.Assert(c, i%2 == 0); err != nil {
				t.Fatalf("suggested candidate %d rejected: %v", c, err)
			}
		}
		for _, p := range s.Instantiate().Pairs() {
			if d.Network.CandidateIndex(p[0], p[1]) < 0 {
				t.Fatalf("instantiated pair %v is not a candidate", p)
			}
		}
	})
}
