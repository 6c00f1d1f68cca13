package matcher

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"schemanet/internal/datagen"
	"schemanet/internal/schema"
	"schemanet/internal/similarity"
)

// reference is the internal/similarity computation a built-in measure
// must reproduce, given the corpus of the network's attribute names.
type reference func(c *similarity.Corpus, a, b string) float64

func onCanon(fn func(a, b string) float64) reference {
	return func(c *similarity.Corpus, a, b string) float64 { return fn(c.Canon(a), c.Canon(b)) }
}

func onConcat(fn func(a, b string) float64) reference {
	strip := func(s string) string { return strings.ReplaceAll(s, " ", "") }
	return func(c *similarity.Corpus, a, b string) float64 { return fn(strip(c.Canon(a)), strip(c.Canon(b))) }
}

func trigramDice(a, b string) float64 { return similarity.QGramDice(a, b, 3) }

// references maps every built-in measure to its string reference.
var references = map[string]reference{
	"jaro-winkler":   onCanon(similarity.JaroWinkler),
	"trigram-dice":   onCanon(trigramDice),
	"concat-trigram": onConcat(trigramDice),
	"token-jaccard":  onCanon(similarity.TokenJaccard),
	"tfidf-cosine":   (*similarity.Corpus).Cosine,
	"levenshtein":    onConcat(similarity.LevenshteinSimilarity),
	"prefix":         onCanon(similarity.PrefixSimilarity),
	"suffix":         onCanon(similarity.SuffixSimilarity),
}

// mapLeaves copies a process tree, replacing each leaf's measure by f's.
func mapLeaves(n Node, f func(Measure) Measure) Node {
	switch n := n.(type) {
	case *Leaf:
		return &Leaf{f(n.m)}
	case *Combine:
		c := *n
		c.Children = make([]Node, len(n.Children))
		for i, ch := range n.Children {
			c.Children[i] = mapLeaves(ch, f)
		}
		return &c
	case *Filter:
		return &Filter{Child: mapLeaves(n.Child, f), T: n.T}
	case *Boost:
		return &Boost{Child: mapLeaves(n.Child, f), Mid: n.Mid, Steep: n.Steep}
	}
	panic("mapLeaves: unknown node type")
}

// builtinMeasures returns the measures both built-in matchers score
// with: COMA-like's measure set and AMC-like's leaves.
func builtinMeasures() []Measure {
	ms := NewCOMALike().measures
	mapLeaves(NewAMCLike().root, func(m Measure) Measure { ms = append(ms, m); return m })
	return ms
}

// referenceMatchers rebuilds COMA-like and AMC-like over measures that
// call the internal/similarity string functions on every pair.
func referenceMatchers(t testing.TB, net *schema.Network) []Matcher {
	t.Helper()
	names := make([]string, net.NumAttributes())
	for a := range names {
		names[a] = net.AttrName(schema.AttrID(a))
	}
	corpus := similarity.NewCorpus(names, similarity.DefaultAbbreviations())
	ref := func(m Measure) Measure {
		fn, ok := references[m.Name]
		if !ok {
			t.Fatalf("measure %q has no string reference", m.Name)
		}
		return Measure{Name: m.Name, Fn: func(a, b *Row, _ *Scratch) float64 { return fn(corpus, a.name, b.name) }}
	}
	coma := *NewCOMALike()
	coma.measures = make([]Measure, len(coma.measures))
	for k, m := range NewCOMALike().measures {
		coma.measures[k] = ref(m)
	}
	amc := *NewAMCLike()
	amc.root = mapLeaves(amc.root, ref)
	return []Matcher{&coma, &amc}
}

// nameSet is a handful of attribute names drawn from the shapes real
// schemas use and the ones that stress the features: camelCase and
// acronyms, digits, separators, abbreviations, separator-free
// compounds, non-ASCII letters, token-free names and long names.
type nameSet []string

var nameParts = [][]string{
	{"order", "Order", "ORDER", "customer", "Name", "date", "ID", "id", "HTTPServer", "companyid", "company", "qty", "nbr", "po", "dob", "zip", "x"},
	{"2", "42", "007", "v2"},
	{"_", "-", " ", ".", "/", ":", "#", "$$", "(", ")", "%"},
	{"価格", "数量", "é", "Straße", "İstanbul", "ǅemal", "Ωmega", "ñandú", "日本語テキスト"},
}

// Generate implements quick.Generator.
func (nameSet) Generate(r *rand.Rand, _ int) reflect.Value {
	set := make(nameSet, 2+r.Intn(4))
	for i := range set {
		var b strings.Builder
		switch r.Intn(8) {
		case 0: // token-free
			for k := 1 + r.Intn(3); k > 0; k-- {
				b.WriteString(nameParts[2][r.Intn(len(nameParts[2]))])
			}
		case 1: // long
			for b.Len() <= 64 {
				b.WriteString(nameParts[0][r.Intn(len(nameParts[0]))])
			}
		case 2: // arbitrary code points
			for k := 1 + r.Intn(6); k > 0; k-- {
				b.WriteRune(rune(r.Intn(0x3000)))
			}
		default:
			for k := 1 + r.Intn(4); k > 0; k-- {
				part := nameParts[r.Intn(len(nameParts))]
				b.WriteString(part[r.Intn(len(part))])
			}
		}
		set[i] = b.String()
	}
	return reflect.ValueOf(set)
}

// TestMeasuresMatchStringReferences checks every built-in measure over
// feature rows against its internal/similarity string function, bit
// for bit, on every ordered pair of random name sets.
func TestMeasuresMatchStringReferences(t *testing.T) {
	measures := builtinMeasures()
	var s Scratch // shared across cases, so it regrows as names lengthen
	prop := func(names nameSet) bool {
		rows := tableOf(names)
		corpus := similarity.NewCorpus(names, similarity.DefaultAbbreviations())
		for i := range names {
			for j := range names {
				for _, m := range measures {
					got := m.Fn(&rows[i], &rows[j], &s)
					want := references[m.Name](corpus, names[i], names[j])
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("%s(%q, %q) = %v from the table, %v from the string function", m.Name, names[i], names[j], got, want)
						return false
					}
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 1000, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestMatchersMatchStringReference runs both matchers and their
// string-function references over paper-shaped datasets and requires
// identical correspondences, confidence bits included.
func TestMatchersMatchStringReference(t *testing.T) {
	for _, c := range []struct {
		name    string
		profile datagen.Profile
		seed    int64
	}{
		{"bp-1-seed1", datagen.BP(), 1},
		{"bp-1-seed7", datagen.BP(), 7},
		{"uaf-0.5-seed1", datagen.Scale(datagen.UAF(), 0.5), 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			net := datagen.MustGenerate(c.profile, rand.New(rand.NewSource(c.seed))).Network
			for k, ref := range referenceMatchers(t, net) {
				m := []Matcher{NewCOMALike(), NewAMCLike()}[k]
				got, want := m.Match(net), ref.Match(net)
				if len(got) != len(want) {
					t.Fatalf("%s: %d correspondences, reference %d", m.Name(), len(got), len(want))
				}
				for i := range got {
					g, w := got[i], want[i]
					if g.A != w.A || g.B != w.B || math.Float64bits(g.Confidence) != math.Float64bits(w.Confidence) {
						t.Fatalf("%s: correspondence %d is %v, reference %v", m.Name(), i, g, w)
					}
				}
			}
		})
	}
}

var sinkScore float64

// TestPairScoringAllocatesNothing checks that scoring one pair
// allocates nothing on either matcher's path once the worker's scratch
// has grown to the pair's name lengths.
func TestPairScoringAllocatesNothing(t *testing.T) {
	rows := tableOf([]string{"customerShippingAddressLine2", "cust_ship_addr_2", "invoice_total_amount", "#"})
	s := &Scratch{}
	coma := NewCOMALike()
	scores := make([]float64, len(coma.measures))
	for i := range rows {
		for j := range rows {
			a, b := &rows[i], &rows[j]
			if n := testing.AllocsPerRun(100, func() { sinkScore = coma.score(a, b, s, scores) }); n != 0 {
				t.Errorf("coma-like pair (%q, %q): %v allocs", a.name, b.name, n)
			}
			mapLeaves(NewAMCLike().root, func(m Measure) Measure {
				if n := testing.AllocsPerRun(100, func() { sinkScore = m.Fn(a, b, s) }); n != 0 {
					t.Errorf("amc-like leaf %s (%q, %q): %v allocs", m.Name, a.name, b.name, n)
				}
				return m
			})
		}
	}
}
