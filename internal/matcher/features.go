package matcher

import (
	"slices"

	"schemanet/internal/schema"
	"schemanet/internal/similarity"
)

// Row holds the features of one attribute that the built-in measures
// read. Match builds one row per attribute (the feature table, indexed
// by AttrID) before scoring any pair, so a pair costs only the
// comparison of two rows: merge-joins over sorted id vectors and rune
// loops over precomputed canonical forms.
type Row struct {
	name   string
	canon  []rune // the corpus canonical form
	concat []rune // canon with its spaces removed

	canonGrams, concatGrams gramVec

	// tokens is the sorted token-id set of similarity.Tokenize(canon).
	tokens []int32
	tfidf  tfidfVec
}

// emptyCanon reports whether the name has no tokens at all ("#", "$$").
// Every measure scores two such names as identical, so the matchers
// score a pair with an empty side 0 instead.
func (r *Row) emptyCanon() bool { return len(r.canon) == 0 }

// gramVec is the multiset of q=3 grams of a '#'-padded string: the
// distinct gram codes in ascending order, their counts, and the
// multiset size. A gram's code packs its three runes at 21 bits each,
// so codes are distinct exactly when grams are, and need no
// dictionary.
type gramVec struct {
	codes  []uint64
	counts []int32
	size   int
}

// tfidfVec is a name's TF-IDF vector over token ids. Ids are ranks in
// the table's sorted token vocabulary, so ascending ids visit terms in
// the same order as similarity.Corpus.Cosine and the dot product sums
// identically.
type tfidfVec struct {
	ids     []int32
	weights []float64
	norm    float64
}

// buildTable computes the feature row of every attribute of net over
// one TF-IDF corpus of all its attribute names.
func buildTable(net *schema.Network) []Row {
	names := make([]string, net.NumAttributes())
	for a := range names {
		names[a] = net.AttrName(schema.AttrID(a))
	}
	return tableOf(names)
}

// tableOf builds the feature rows of names, parallel to it.
func tableOf(names []string) []Row {
	corpus := similarity.NewCorpus(names, similarity.DefaultAbbreviations())
	rows := make([]Row, len(names))
	toks := make([][]string, len(names))
	terms := make([][]string, len(names))
	var vocab []string
	for i, name := range names {
		r := &rows[i]
		canon := corpus.Canon(name)
		r.name = name
		r.canon = []rune(canon)
		r.concat = make([]rune, 0, len(r.canon))
		for _, c := range r.canon {
			if c != ' ' {
				r.concat = append(r.concat, c)
			}
		}
		r.canonGrams = trigrams(r.canon)
		r.concatGrams = trigrams(r.concat)
		toks[i] = similarity.Tokenize(canon)
		terms[i], r.tfidf.weights, r.tfidf.norm = corpus.Vector(name)
		vocab = append(vocab, toks[i]...)
		vocab = append(vocab, terms[i]...)
	}
	slices.Sort(vocab)
	vocab = slices.Compact(vocab)
	ids := func(ts []string) []int32 {
		out := make([]int32, len(ts))
		for k, t := range ts {
			id, _ := slices.BinarySearch(vocab, t)
			out[k] = int32(id)
		}
		return out
	}
	for i := range rows {
		set := ids(toks[i])
		slices.Sort(set)
		rows[i].tokens = slices.Compact(set)
		rows[i].tfidf.ids = ids(terms[i])
	}
	return rows
}

// trigrams returns the gram multiset of rs padded by two '#' on each
// side, as similarity.QGrams(string(rs), 3) counts it.
func trigrams(rs []rune) gramVec {
	at := func(i int) uint64 { // i indexes the padded string
		if i < 2 || i >= len(rs)+2 {
			return '#'
		}
		return uint64(rs[i-2])
	}
	n := len(rs) + 2
	codes := make([]uint64, n)
	for i := range codes {
		codes[i] = at(i)<<42 | at(i+1)<<21 | at(i+2)
	}
	slices.Sort(codes)
	g := gramVec{size: n}
	for i := 0; i < n; {
		j := i + 1
		for j < n && codes[j] == codes[i] {
			j++
		}
		g.codes = append(g.codes, codes[i])
		g.counts = append(g.counts, int32(j-i))
		i = j
	}
	return g
}

// Scratch is the working memory of the measures that need some (Jaro
// match flags, Levenshtein rows). Each scoring goroutine owns one; the
// zero value is ready to use and grows on demand, so scoring a pair
// allocates nothing once the scratch has seen names as long as the
// pair's.
type Scratch struct {
	flags []bool
	dp    []int
}

// bools returns n cleared flags.
func (s *Scratch) bools(n int) []bool {
	if cap(s.flags) < n {
		s.flags = make([]bool, n)
	}
	f := s.flags[:n]
	clear(f)
	return f
}

// ints returns n ints with unspecified contents.
func (s *Scratch) ints(n int) []int {
	if cap(s.dp) < n {
		s.dp = make([]int, n)
	}
	return s.dp[:n]
}

// The built-in measures. Each equals the internal/similarity function
// it is named after, applied to the corpus canonical forms of the two
// names (concat-trigram and levenshtein: with spaces removed;
// tfidf-cosine: Corpus.Cosine of the raw names).
var (
	jaroWinklerMeasure = Measure{Name: "jaro-winkler", Fn: func(a, b *Row, s *Scratch) float64 {
		return jaroWinkler(a.canon, b.canon, s)
	}}
	trigramDiceMeasure = Measure{Name: "trigram-dice", Fn: func(a, b *Row, _ *Scratch) float64 {
		return gramDice(&a.canonGrams, &b.canonGrams)
	}}
	concatTrigramMeasure = Measure{Name: "concat-trigram", Fn: func(a, b *Row, _ *Scratch) float64 {
		return gramDice(&a.concatGrams, &b.concatGrams)
	}}
	tokenJaccardMeasure = Measure{Name: "token-jaccard", Fn: func(a, b *Row, _ *Scratch) float64 {
		return tokenJaccard(a.tokens, b.tokens)
	}}
	tfidfCosineMeasure = Measure{Name: "tfidf-cosine", Fn: func(a, b *Row, _ *Scratch) float64 {
		return cosine(&a.tfidf, &b.tfidf)
	}}
	levenshteinMeasure = Measure{Name: "levenshtein", Fn: func(a, b *Row, s *Scratch) float64 {
		return levenshteinSimilarity(a.concat, b.concat, s)
	}}
	prefixMeasure = Measure{Name: "prefix", Fn: func(a, b *Row, _ *Scratch) float64 {
		return prefixSimilarity(a.canon, b.canon)
	}}
	suffixMeasure = Measure{Name: "suffix", Fn: func(a, b *Row, _ *Scratch) float64 {
		return suffixSimilarity(a.canon, b.canon)
	}}
)

// gramDice is similarity.QGramDice over two gram multisets. Padding
// gives every multiset at least two grams, so the sizes never sum to 0.
func gramDice(a, b *gramVec) float64 {
	overlap := 0
	for i, j := 0, 0; i < len(a.codes) && j < len(b.codes); {
		switch {
		case a.codes[i] < b.codes[j]:
			i++
		case a.codes[i] > b.codes[j]:
			j++
		default:
			overlap += int(min(a.counts[i], b.counts[j]))
			i++
			j++
		}
	}
	return 2 * float64(overlap) / float64(a.size+b.size)
}

// tokenJaccard is similarity.TokenJaccard over two sorted token-id sets.
func tokenJaccard(a, b []int32) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter := 0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			inter++
			i++
			j++
		}
	}
	return float64(inter) / float64(len(a)+len(b)-inter)
}

// cosine is similarity.Corpus.Cosine over two TF-IDF vectors.
func cosine(a, b *tfidfVec) float64 {
	if len(a.ids) == 0 && len(b.ids) == 0 {
		return 1
	}
	if a.norm == 0 || b.norm == 0 {
		return 0
	}
	dot := 0.0
	for i, j := 0, 0; i < len(a.ids) && j < len(b.ids); {
		switch {
		case a.ids[i] < b.ids[j]:
			i++
		case a.ids[i] > b.ids[j]:
			j++
		default:
			dot += a.weights[i] * b.weights[j]
			i++
			j++
		}
	}
	return dot / (a.norm * b.norm)
}

// jaro is similarity.Jaro over rune slices.
func jaro(ra, rb []rune, s *Scratch) float64 {
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	window := max(la, lb)/2 - 1
	if window < 0 {
		window = 0
	}
	flags := s.bools(la + lb)
	aMatched, bMatched := flags[:la], flags[la:]
	matches := 0
	for i := 0; i < la; i++ {
		lo := max(i-window, 0)
		hi := min(i+window, lb-1)
		for j := lo; j <= hi; j++ {
			if !bMatched[j] && ra[i] == rb[j] {
				aMatched[i] = true
				bMatched[j] = true
				matches++
				break
			}
		}
	}
	if matches == 0 {
		return 0
	}
	transpositions := 0
	j := 0
	for i := 0; i < la; i++ {
		if !aMatched[i] {
			continue
		}
		for !bMatched[j] {
			j++
		}
		if ra[i] != rb[j] {
			transpositions++
		}
		j++
	}
	m := float64(matches)
	t := float64(transpositions) / 2
	return (m/float64(la) + m/float64(lb) + (m-t)/m) / 3
}

// jaroWinkler is similarity.JaroWinkler over rune slices.
func jaroWinkler(ra, rb []rune, s *Scratch) float64 {
	const (
		prefixScale = 0.1
		maxPrefix   = 4
	)
	j := jaro(ra, rb, s)
	l := 0
	for l < len(ra) && l < len(rb) && l < maxPrefix && ra[l] == rb[l] {
		l++
	}
	return j + float64(l)*prefixScale*(1-j)
}

// levenshteinSimilarity is similarity.LevenshteinSimilarity over rune
// slices.
func levenshteinSimilarity(ra, rb []rune, s *Scratch) float64 {
	la, lb := len(ra), len(rb)
	m := max(la, lb)
	if m == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0 // distance m
	}
	dp := s.ints(2 * (lb + 1))
	prev, cur := dp[:lb+1], dp[lb+1:]
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		for j := 1; j <= lb; j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return 1 - float64(prev[lb])/float64(m)
}

// prefixSimilarity is similarity.PrefixSimilarity over rune slices.
func prefixSimilarity(ra, rb []rune) float64 {
	if len(ra) == 0 && len(rb) == 0 {
		return 1
	}
	n := min(len(ra), len(rb))
	if n == 0 {
		return 0
	}
	k := 0
	for k < n && ra[k] == rb[k] {
		k++
	}
	return float64(k) / float64(n)
}

// suffixSimilarity is similarity.SuffixSimilarity over rune slices.
func suffixSimilarity(ra, rb []rune) float64 {
	if len(ra) == 0 && len(rb) == 0 {
		return 1
	}
	n := min(len(ra), len(rb))
	if n == 0 {
		return 0
	}
	k := 0
	for k < n && ra[len(ra)-1-k] == rb[len(rb)-1-k] {
		k++
	}
	return float64(k) / float64(n)
}
