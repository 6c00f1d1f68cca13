package similarity

import (
	"math"
	"sort"
	"sync"
)

// Corpus holds document frequencies of tokens across a collection of
// attribute names, enabling TF-IDF-weighted cosine similarity. Rare,
// discriminative tokens ("invoice") then weigh more than ubiquitous ones
// ("id", "name"), mirroring the corpus-based components of composite
// matchers such as COMA.
type Corpus struct {
	docFreq map[string]int
	docs    int
	norm    *Normalizer

	mu   sync.Mutex
	vecs map[string]vector
}

// vector is a cached TF-IDF vector with its precomputed norm. Tokens are
// kept sorted so dot products and norms accumulate in a fixed order:
// map-ordered float summation varies between runs by an ulp, which is
// enough to flip a candidate sitting exactly on a selector threshold.
type vector struct {
	toks    []string
	weights []float64
	norm    float64
}

// NewCorpus builds a corpus from the given attribute names. The optional
// abbreviation dictionary is applied during tokenization so "qty" and
// "quantity" share statistics; pass nil to disable expansion. The corpus
// normalizer also segments separator-free tokens against the vocabulary
// built from all names (see Vocabulary.Segment).
func NewCorpus(names []string, abbrev map[string]string) *Corpus {
	c := &Corpus{
		docFreq: make(map[string]int),
		norm:    NewNormalizer(names, abbrev),
		vecs:    make(map[string]vector),
	}
	for _, n := range names {
		c.AddDocument(n)
	}
	return c
}

// Canon exposes the corpus normalizer's canonical form of a name.
func (c *Corpus) Canon(name string) string { return c.norm.Canon(name) }

// Normalizer returns the corpus's normalizer.
func (c *Corpus) Normalizer() *Normalizer { return c.norm }

// AddDocument registers one more attribute name with the corpus. Cached
// vectors are invalidated since document frequencies changed.
func (c *Corpus) AddDocument(name string) {
	c.docs++
	seen := make(map[string]bool)
	for _, t := range c.tokens(name) {
		if !seen[t] {
			seen[t] = true
			c.docFreq[t]++
		}
	}
	c.mu.Lock()
	if len(c.vecs) > 0 {
		c.vecs = make(map[string]vector)
	}
	c.mu.Unlock()
}

// Size returns the number of registered documents.
func (c *Corpus) Size() int { return c.docs }

func (c *Corpus) tokens(name string) []string {
	return c.norm.Tokens(name)
}

// idf returns the smoothed inverse document frequency of token t.
func (c *Corpus) idf(t string) float64 {
	df := c.docFreq[t]
	return math.Log(float64(c.docs+1)/float64(df+1)) + 1
}

// vector returns the memoized TF-IDF vector of a name.
func (c *Corpus) vector(name string) vector {
	c.mu.Lock()
	if v, ok := c.vecs[name]; ok {
		c.mu.Unlock()
		return v
	}
	c.mu.Unlock()
	tf := make(map[string]int)
	for _, t := range c.tokens(name) {
		tf[t]++
	}
	toks := make([]string, 0, len(tf))
	//lint:sorted terms are collected and sorted (sort.Strings below) before the float fold
	for t := range tf {
		toks = append(toks, t)
	}
	sort.Strings(toks)
	w := make([]float64, len(toks))
	n := 0.0
	for i, t := range toks {
		x := float64(tf[t]) * c.idf(t)
		w[i] = x
		n += x * x
	}
	v := vector{toks: toks, weights: w, norm: math.Sqrt(n)}
	c.mu.Lock()
	c.vecs[name] = v
	c.mu.Unlock()
	return v
}

// Vector returns the TF-IDF vector of a name: its distinct canonical
// tokens in ascending string order, their weights, and the vector norm.
// Callers must not modify the returned slices.
func (c *Corpus) Vector(name string) (toks []string, weights []float64, norm float64) {
	v := c.vector(name)
	return v.toks, v.weights, v.norm
}

// Cosine returns the TF-IDF cosine similarity of two names in [0, 1].
func (c *Corpus) Cosine(a, b string) float64 {
	va, vb := c.vector(a), c.vector(b)
	if len(va.toks) == 0 && len(vb.toks) == 0 {
		return 1
	}
	if va.norm == 0 || vb.norm == 0 {
		return 0
	}
	// Merge join over the sorted token lists.
	dot := 0.0
	for i, j := 0, 0; i < len(va.toks) && j < len(vb.toks); {
		switch {
		case va.toks[i] < vb.toks[j]:
			i++
		case va.toks[i] > vb.toks[j]:
			j++
		default:
			dot += va.weights[i] * vb.weights[j]
			i++
			j++
		}
	}
	return dot / (va.norm * vb.norm)
}
