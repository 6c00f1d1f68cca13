package matcher

import (
	"runtime"
	"sync"

	"schemanet/internal/schema"
)

// Matcher produces candidate correspondences for every edge of a
// network's interaction graph. Implementations are deterministic.
type Matcher interface {
	Name() string
	Match(net *schema.Network) []schema.Correspondence
}

// Measure scores the similarity of two attributes in [0, 1] from
// their feature rows. s is the calling goroutine's scratch.
type Measure struct {
	Name string
	Fn   func(a, b *Row, s *Scratch) float64
}

// DefaultMeasures returns the standard first-line measure set shared by
// the built-in matchers: edit-based, gram-based (token-aware and
// separator-free), token-based, and corpus TF-IDF name similarity.
func DefaultMeasures() []Measure {
	return []Measure{jaroWinklerMeasure, trigramDiceMeasure, concatTrigramMeasure, tokenJaccardMeasure, tfidfCosineMeasure}
}

// scoreFunc fills the similarity matrix of one edge from the feature
// table t, using the calling worker's scratch s.
type scoreFunc func(t []Row, rows, cols []schema.AttrID, s *Scratch) *Matrix

// matchEdges builds the feature table of net, runs score+select over
// every interaction edge and converts selected cells to
// correspondences. Edges are scored in parallel (the dominant cost on
// large networks — WebForm has ~3900 edges); results are flattened in
// edge order, so the output is deterministic.
func matchEdges(net *schema.Network, score scoreFunc, sel Selector) []schema.Correspondence {
	t := buildTable(net)
	edges := net.Interaction().Edges()
	perEdge := make([][]schema.Correspondence, len(edges))

	workers := runtime.GOMAXPROCS(0)
	if workers > len(edges) {
		workers = len(edges)
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s Scratch
			for i := range next {
				e := edges[i]
				s1 := net.SchemaByID(schema.SchemaID(e.U))
				s2 := net.SchemaByID(schema.SchemaID(e.V))
				m := score(t, s1.Attrs, s2.Attrs, &s)
				var out []schema.Correspondence
				for _, cell := range sel.Select(m) {
					out = append(out, schema.Correspondence{
						A:          m.Rows[cell.Row],
						B:          m.Cols[cell.Col],
						Confidence: cell.Confidence,
					}.Canonical())
				}
				perEdge[i] = out
			}
		}()
	}
	for i := range edges {
		next <- i
	}
	close(next)
	wg.Wait()

	var out []schema.Correspondence
	for _, cs := range perEdge {
		out = append(out, cs...)
	}
	return out
}
