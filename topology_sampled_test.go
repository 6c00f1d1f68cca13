package schemanet_test

import (
	"fmt"
	"math"
	"testing"

	"schemanet"
)

// TestRetiredCandidateSampled: under sampled inference a retired
// candidate reads probability 0, is never suggested, and never appears
// in Instantiate's matching. A retire leaves the candidate a component
// of its own; the walk over that component and the survivor seeding of
// rebuilt components must both treat it as excluded. Covered on the
// §II-A video network (every candidate retired in turn, seeds 1–20) and
// on BP at scale 0.4 with candidates 0–9 retired.
func TestRetiredCandidateSampled(t *testing.T) {
	check := func(t *testing.T, net *schemanet.Network, truth *schemanet.Matching, seed int64, retire []int, steps int) {
		t.Helper()
		s, err := schemanet.NewSession(net, &schemanet.Options{Inference: "sampled", Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		retired := make(map[int]bool, len(retire))
		for _, c := range retire {
			if err := s.RetireCandidate(c); err != nil {
				t.Fatalf("RetireCandidate(%d): %v", c, err)
			}
			retired[c] = true
		}
		verify := func(when string) {
			t.Helper()
			m := s.Instantiate()
			for _, c := range retire {
				if p := mustProb(t, s, c); p != 0 {
					t.Fatalf("%s: retired candidate %d has probability %v, want 0", when, c, p)
				}
				if m.ContainsCorrespondence(net.Candidate(c)) {
					t.Fatalf("%s: retired candidate %d is in the instantiated matching", when, c)
				}
			}
		}
		verify("after retiring")
		for i := 0; i < steps; i++ {
			c, ok := s.Suggest()
			if !ok {
				break
			}
			if retired[c] {
				t.Fatalf("step %d: retired candidate %d suggested", i, c)
			}
			if err := s.Assert(c, truth.ContainsCorrespondence(net.Candidate(c))); err != nil {
				t.Fatal(err)
			}
			verify(fmt.Sprintf("step %d", i))
		}
	}

	t.Run("video", func(t *testing.T) {
		net, truth := videoNet(t)
		for seed := int64(1); seed <= 20; seed++ {
			for c := 0; c < net.NumCandidates(); c++ {
				check(t, net, truth, seed, []int{c}, net.NumCandidates())
			}
		}
	})
	t.Run("bp-0.4", func(t *testing.T) {
		d, err := schemanet.GenerateDataset("bp", 0.4, 7)
		if err != nil {
			t.Fatal(err)
		}
		net, err := schemanet.Match(d.Network, schemanet.COMALike())
		if err != nil {
			t.Fatal(err)
		}
		check(t, net, d.GroundTruth, 1, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 15)
	})
}

// TestGrowthCarriesSingleComponent: a sampled session over a network
// that is one component (BP at scale 1) grows by two schemas and one
// candidate between them. The new candidate forms a component of its
// own, so the old component is carried as it is: every old candidate's
// probability is bit-identical before and after.
func TestGrowthCarriesSingleComponent(t *testing.T) {
	d, err := schemanet.GenerateDataset("bp", 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	net, err := schemanet.Match(d.Network, schemanet.COMALike())
	if err != nil {
		t.Fatal(err)
	}
	s, err := schemanet.NewSession(net, &schemanet.Options{Inference: "sampled", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Components(); got != 1 {
		t.Fatalf("network has %d components, want 1", got)
	}
	// A few assertions first, so the carried store is not the initial
	// fill.
	for i := 0; i < 5; i++ {
		c, ok := s.Suggest()
		if !ok {
			t.Fatal("no suggestion")
		}
		if err := s.Assert(c, d.GroundTruth.ContainsCorrespondence(net.Candidate(c))); err != nil {
			t.Fatal(err)
		}
	}
	oldN := net.NumCandidates()
	before := make([]float64, oldN)
	for c := range before {
		before[c] = mustProb(t, s, c)
	}

	for _, name := range []string{"LateA", "LateB"} {
		if err := s.AddSchema(name, "x"); err != nil {
			t.Fatal(err)
		}
	}
	na := s.Network().NumAttributes()
	a, b := schemanet.AttrID(na-2), schemanet.AttrID(na-1)
	if err := s.AddCandidates([]schemanet.Correspondence{{A: a, B: b, Confidence: 0.5}}); err != nil {
		t.Fatal(err)
	}
	if got := s.Components(); got != 2 {
		t.Fatalf("after growth: %d components, want 2 (the old one and the new candidate)", got)
	}
	for c, want := range before {
		if got := mustProb(t, s, c); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("p(%d) = %v after growth, want %v", c, got, want)
		}
	}
}
