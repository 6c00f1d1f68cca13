package matcher

import "schemanet/internal/schema"

// Composite is a parallel composite matcher in the style of COMA++: it
// runs a set of first-line measures on every attribute pair, aggregates
// the scores, and applies a selection strategy. The paper uses COMA++ as
// one of the two candidate generators (§VI-A).
type Composite struct {
	name     string
	measures []Measure
	weights  []float64
	agg      Aggregator
	selector Selector
}

// NewComposite builds a composite matcher. weights may be nil (parallel
// to measures otherwise); agg defaults to WeightedAgg and selector to
// Threshold{0.5} when nil.
func NewComposite(name string, measures []Measure, weights []float64, agg Aggregator, selector Selector) *Composite {
	if agg == nil {
		agg = WeightedAgg
	}
	if selector == nil {
		selector = Threshold{T: 0.5}
	}
	return &Composite{name: name, measures: measures, weights: weights, agg: agg, selector: selector}
}

// Name implements Matcher.
func (c *Composite) Name() string { return c.name }

// Match implements Matcher.
func (c *Composite) Match(net *schema.Network) []schema.Correspondence {
	score := func(t []Row, rows, cols []schema.AttrID, s *Scratch) *Matrix {
		scores := make([]float64, len(c.measures))
		m := NewMatrix(rows, cols)
		for i, ra := range rows {
			for j, cb := range cols {
				m.Set(i, j, c.score(&t[ra], &t[cb], s, scores))
			}
		}
		return m
	}
	return matchEdges(net, score, c.selector)
}

// score aggregates the measures over one pair; scores is scratch
// parallel to c.measures. A pair with a token-free side scores 0.
func (c *Composite) score(a, b *Row, s *Scratch, scores []float64) float64 {
	if a.emptyCanon() || b.emptyCanon() {
		return 0
	}
	for k, meas := range c.measures {
		scores[k] = meas.Fn(a, b, s)
	}
	return c.agg(scores, c.weights)
}

// NewCOMALike returns the default "COMA-like" composite matcher used
// throughout the experiments: the standard measure set, weighted-average
// aggregation biased toward the corpus measure, and threshold selection.
// Thresholds are tuned so that candidate precision lands in the 0.6–0.75
// band the paper reports for its datasets.
func NewCOMALike() *Composite {
	return NewComposite(
		"coma-like",
		DefaultMeasures(),
		[]float64{0.2, 0.15, 0.25, 0.15, 0.25},
		WeightedAgg,
		Threshold{T: 0.66},
	)
}
