package schemanet_test

// Byte-level pins of the persisted formats: a plain Save (Version 1), a
// Save of a session that grew its network between assertions
// (Version 2), and the snapshot.json and wal.log a SessionStore leaves
// after the same grow/assert scenario with two annotators. Files
// written by one release must stay readable by the next, so any change
// to these bytes is a format change. Regenerate deliberately with
//
//	go test -run TestPersistedFormatsGolden -update .

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"schemanet"
	"schemanet/internal/wal"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/formats")

// formatOps is the grow/assert scenario the Version 2 pins run, on the
// videoNet base network (4 attributes, 5 candidates). The assert and
// batch steps take an annotator, which only durable sessions record.
type formatOps struct {
	assert      func(annotator string, c int, ok bool) error
	assertBatch func(annotator string, as []schemanet.Assertion) error
	addSchema   func(name string, attrs ...string) error
	addCands    func(cs []schemanet.Correspondence) error
	retire      func(c int) error
}

func runFormatScenario(t *testing.T, o formatOps) {
	t.Helper()
	steps := []func() error{
		func() error { return o.assert("alice", 0, true) },
		func() error { return o.addSchema("live", "x", "y") },
		func() error {
			return o.addCands([]schemanet.Correspondence{
				{A: 4, B: 0, Confidence: 0.7}, // live.x ↔ EoverI.productionDate
				{A: 5, B: 1, Confidence: 0.4}, // live.y ↔ BBC.date
			})
		},
		func() error { return o.assert("bob", 1, false) },
		func() error { return o.retire(2) },
		func() error {
			return o.assertBatch("alice", []schemanet.Assertion{{Cand: 5, Approved: false}, {Cand: 3, Approved: false}})
		},
		func() error { return o.assert("bob", 6, false) },
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("scenario step %d: %v", i, err)
		}
	}
}

func plainFormatOps(s *schemanet.Session) formatOps {
	return formatOps{
		assert:      func(_ string, c int, ok bool) error { return s.Assert(c, ok) },
		assertBatch: func(_ string, as []schemanet.Assertion) error { return s.AssertBatch(as) },
		addSchema:   s.AddSchema,
		addCands:    s.AddCandidates,
		retire:      s.RetireCandidate,
	}
}

// checkGolden compares got with testdata/formats/name, or rewrites the
// file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "formats", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s changed:\n got %q\nwant %q", name, got, want)
	}
}

func TestPersistedFormatsGolden(t *testing.T) {
	net, _ := videoNet(t)
	opts := &schemanet.Options{Inference: "exact", Seed: 1}

	t.Run("save-v1", func(t *testing.T) {
		s, err := schemanet.NewSession(net, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Assert(0, true); err != nil {
			t.Fatal(err)
		}
		if err := s.AssertBatch([]schemanet.Assertion{{Cand: 1, Approved: false}, {Cand: 3, Approved: false}}); err != nil {
			t.Fatal(err)
		}
		if err := s.Assert(4, false); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "save_v1.json", buf.Bytes())
	})

	t.Run("save-v2", func(t *testing.T) {
		s, err := schemanet.NewSession(net, opts)
		if err != nil {
			t.Fatal(err)
		}
		runFormatScenario(t, plainFormatOps(s))
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "save_v2.json", buf.Bytes())
	})

	t.Run("store", func(t *testing.T) {
		// SnapshotEvery 5 compacts once, right after the retire, so the
		// snapshot holds a Version 2 prefix and the WAL the tail.
		fsys := wal.NewMemFS()
		st, err := schemanet.OpenStore("store", net, &schemanet.StoreOptions{
			Session: opts, FS: fsys, SnapshotEvery: 5, Logf: t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		ds, err := st.Session("alpha")
		if err != nil {
			t.Fatal(err)
		}
		runFormatScenario(t, formatOps{
			assert:      ds.AssertAs,
			assertBatch: ds.AssertBatchAs,
			addSchema:   ds.AddSchema,
			addCands:    ds.AddCandidates,
			retire:      ds.RetireCandidate,
		})
		for _, name := range []string{"snapshot.json", "wal.log"} {
			data, err := fsys.ReadFile(filepath.Join("store", "alpha", name))
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "store_"+name, data)
		}
	})
}
