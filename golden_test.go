package schemanet_test

import (
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"schemanet"
)

// oracleGolden is the pinned outcome of a 60-step ground-truth oracle
// loop on a matched BP network: the suggestion sequence, a hash of
// every candidate probability after every step, the residual
// uncertainty, and a hash of the matching Instantiate draws afterwards
// (which consumes the session rng once more).
type oracleGolden struct {
	seq        []int
	trajectory uint64
	residual   float64
	matching   uint64
}

// runOracleGolden drives the loop on GenerateDataset("bp", scale, 7)
// matched with COMALike, session Seed 3.
func runOracleGolden(t *testing.T, scale float64, wantComponents int) oracleGolden {
	t.Helper()
	d, err := schemanet.GenerateDataset("bp", scale, 7)
	if err != nil {
		t.Fatal(err)
	}
	net, err := schemanet.Match(d.Network, schemanet.COMALike())
	if err != nil {
		t.Fatal(err)
	}
	s, err := schemanet.NewSession(net, &schemanet.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Components(); got != wantComponents {
		t.Fatalf("network has %d components, want %d", got, wantComponents)
	}
	var out oracleGolden
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for b := range buf {
			buf[b] = byte(v >> (8 * b))
		}
		h.Write(buf[:])
	}
	for i := 0; i < 60; i++ {
		c, ok := s.Suggest()
		if !ok {
			break
		}
		out.seq = append(out.seq, c)
		if err := s.Assert(c, d.GroundTruth.ContainsCorrespondence(net.Candidate(c))); err != nil {
			t.Fatal(err)
		}
		for cc := 0; cc < net.NumCandidates(); cc++ {
			p, err := s.Probability(cc)
			if err != nil {
				t.Fatal(err)
			}
			put(math.Float64bits(p))
		}
	}
	out.trajectory = h.Sum64()
	out.residual = s.Uncertainty()
	h.Reset()
	for _, p := range s.Instantiate().Pairs() {
		put(uint64(p[0])<<32 | uint64(p[1]))
	}
	out.matching = h.Sum64()
	return out
}

// TestOracleLoopGolden pins the plain single-goroutine session loop to
// values captured before Session absorbed the concurrent serving
// machinery: suggestions, probabilities, and session-rng consumption
// must stay bit-identical. The scale-1 network is one constraint-
// connected component, whose sampler draws from the session rng itself
// — the path where tie-break draws and sampling share one stream.
func TestOracleLoopGolden(t *testing.T) {
	for _, tc := range []struct {
		name  string
		scale float64
		comps int
		want  oracleGolden
	}{
		{"bp-0.4", 0.4, 20, oracleGolden{
			seq:        []int{7, 18, 26, 20, 9, 25, 5, 6, 16, 10, 2, 1, 24, 4, 21, 19, 3, 8, 17, 11, 22, 23, 27, 15, 12, 0, 13, 14},
			trajectory: 0x3a6cbaeb2f108a55, residual: 0, matching: 0x614d751e16749503,
		}},
		{"bp-1", 1, 1, oracleGolden{
			seq: []int{140, 174, 4, 145, 143, 195, 106, 36, 203, 269, 218, 77, 222, 113, 94, 184, 162, 155, 167, 52,
				226, 205, 259, 47, 80, 79, 15, 17, 121, 176, 85, 74, 211, 267, 61, 73, 168, 87, 177, 7,
				230, 243, 118, 115, 156, 265, 170, 103, 105, 209, 59, 254, 136, 132, 130, 138, 263, 30, 207, 19},
			trajectory: 0x37518c2aa508b70d, residual: 22.08270688768405, matching: 0x5f5e2de69c417d3b,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := runOracleGolden(t, tc.scale, tc.comps)
			if !reflect.DeepEqual(got.seq, tc.want.seq) {
				t.Errorf("suggestions = %v\nwant %v", got.seq, tc.want.seq)
			}
			if got.trajectory != tc.want.trajectory {
				t.Errorf("probability trajectory hash = %#x, want %#x", got.trajectory, tc.want.trajectory)
			}
			if got.residual != tc.want.residual {
				t.Errorf("residual uncertainty = %v, want %v", got.residual, tc.want.residual)
			}
			if got.matching != tc.want.matching {
				t.Errorf("instantiated matching hash = %#x, want %#x", got.matching, tc.want.matching)
			}
		})
	}
}
