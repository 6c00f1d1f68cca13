package schema

// Network growth: in-place mutators that relax the construct-once
// assumption of Builder.Build. Sessions clone the caller's network and
// apply these to the private copy only; every other layer (constraint
// engine, cycle plans, per-component stores) shares the clone's pointer
// and therefore observes growth without re-construction.
//
// Appended candidates keep arrival order (Build's canonical sort applies
// only to the initial compile), so candidate indices are stable across
// growth and a retired candidate's slot is never reused.

import (
	"fmt"
	"sort"
	"strings"
)

// Clone returns a deep copy of the network that can be mutated
// independently of the original.
func (n *Network) Clone() *Network {
	c := &Network{
		schemas:     make([]Schema, len(n.schemas)),
		attrs:       append([]Attribute(nil), n.attrs...),
		interaction: n.interaction.Clone(),
		cands:       append([]Correspondence(nil), n.cands...),
		byAttr:      make([][]int, len(n.byAttr)),
		pairIdx:     make(map[[2]AttrID]int, len(n.pairIdx)),
	}
	for i, s := range n.schemas {
		c.schemas[i] = s
		c.schemas[i].Attrs = append([]AttrID(nil), s.Attrs...)
	}
	for a, idxs := range n.byAttr {
		if len(idxs) > 0 {
			c.byAttr[a] = append([]int(nil), idxs...)
		}
	}
	//lint:sorted copies a map keyed by the range key; no cross-key state
	for k, v := range n.pairIdx {
		c.pairIdx[k] = v
	}
	if n.retired != nil {
		c.retired = append([]bool(nil), n.retired...)
	}
	return c
}

// AppendSchema registers a new schema in place and returns its ID. The
// schema is auto-connected to every existing schema in the interaction
// graph (late arrivals are expected to be matched against the whole
// network). Validation mirrors Builder.AddSchema: the schema name must
// be new and attribute names non-empty and unique within the schema.
// Growth must also keep every existing full name pointing at the same
// attribute, since saved sessions and logs resolve attributes by full
// name: an attribute whose full name an existing attribute already
// prints ("A" with "b.c" vs a late "A.b" with "c") is rejected.
func (n *Network) AppendSchema(name string, attrNames ...string) (SchemaID, error) {
	for _, s := range n.schemas {
		if s.Name == name {
			return 0, fmt.Errorf("schema %q: duplicate schema name", name)
		}
		// Full names collide only when one schema name extends the other
		// past a dot.
		if !strings.HasPrefix(name, s.Name+".") && !strings.HasPrefix(s.Name, name+".") {
			continue
		}
		for _, a := range s.Attrs {
			for _, an := range attrNames {
				if full := n.FullName(a); full == name+"."+an {
					return 0, fmt.Errorf("schema %q: attribute %q: full name %q already names an attribute of schema %q",
						name, an, full, s.Name)
				}
			}
		}
	}
	seen := make(map[string]bool, len(attrNames))
	for _, an := range attrNames {
		if an == "" {
			return 0, fmt.Errorf("schema %q: empty attribute name", name)
		}
		if seen[an] {
			return 0, fmt.Errorf("schema %q: duplicate attribute %q", name, an)
		}
		seen[an] = true
	}

	id := SchemaID(len(n.schemas))
	s := Schema{ID: id, Name: name}
	for _, an := range attrNames {
		aid := AttrID(len(n.attrs))
		n.attrs = append(n.attrs, Attribute{ID: aid, Name: an, Schema: id})
		n.byAttr = append(n.byAttr, nil)
		s.Attrs = append(s.Attrs, aid)
	}
	n.schemas = append(n.schemas, s)
	v := n.interaction.AddVertex()
	for u := 0; u < v; u++ {
		n.interaction.AddEdge(u, v)
	}
	return id, nil
}

// AppendCandidates appends candidate correspondences in place and
// returns the index of the first appended candidate. Endpoints must be
// known attributes of distinct schemas with confidence in [0, 1];
// unlike Build (which merges duplicates keeping the max confidence), a
// pair already live in the network or repeated within the batch is
// rejected. Missing interaction edges between the endpoint schemas are
// added automatically.
func (n *Network) AppendCandidates(cs []Correspondence) (int, error) {
	first := len(n.cands)
	inBatch := make(map[[2]AttrID]bool, len(cs))
	for _, c := range cs {
		if int(c.A) >= len(n.attrs) || int(c.B) >= len(n.attrs) || c.A < 0 || c.B < 0 {
			return 0, fmt.Errorf("schema: candidate %v references unknown attribute", c)
		}
		if c.A == c.B {
			return 0, fmt.Errorf("schema: candidate with identical endpoints %d", c.A)
		}
		if n.attrs[c.A].Schema == n.attrs[c.B].Schema {
			return 0, fmt.Errorf("schema: candidate %s-%s within one schema",
				n.attrs[c.A].Name, n.attrs[c.B].Name)
		}
		if c.Confidence < 0 || c.Confidence > 1 {
			return 0, fmt.Errorf("schema: confidence %v out of [0,1]", c.Confidence)
		}
		key := c.Pair()
		if _, live := n.pairIdx[key]; live {
			return 0, fmt.Errorf("schema: candidate %s-%s already present",
				n.FullName(c.A), n.FullName(c.B))
		}
		if inBatch[key] {
			return 0, fmt.Errorf("schema: candidate %s-%s repeated in batch",
				n.FullName(c.A), n.FullName(c.B))
		}
		inBatch[key] = true
	}
	for _, c := range cs {
		c = c.Canonical()
		i := len(n.cands)
		n.cands = append(n.cands, c)
		n.byAttr[c.A] = append(n.byAttr[c.A], i)
		n.byAttr[c.B] = append(n.byAttr[c.B], i)
		n.pairIdx[c.Pair()] = i
		if n.retired != nil {
			n.retired = append(n.retired, false)
		}
		sa, sb := int(n.attrs[c.A].Schema), int(n.attrs[c.B].Schema)
		n.interaction.AddEdge(sa, sb)
	}
	return first, nil
}

// RetireCandidate withdraws candidate i in place. The slot is kept (so
// candidate indices never shift) but the candidate disappears from
// CandidatesOf and CandidateIndex; re-adding the same attribute pair
// later creates a fresh candidate under a new index.
func (n *Network) RetireCandidate(i int) error {
	if i < 0 || i >= len(n.cands) {
		return fmt.Errorf("schema: candidate %d out of range [0,%d)", i, len(n.cands))
	}
	if n.Retired(i) {
		return fmt.Errorf("schema: candidate %d already retired", i)
	}
	if n.retired == nil {
		n.retired = make([]bool, len(n.cands))
	}
	n.retired[i] = true
	c := n.cands[i]
	n.byAttr[c.A] = removeIndex(n.byAttr[c.A], i)
	n.byAttr[c.B] = removeIndex(n.byAttr[c.B], i)
	if j, ok := n.pairIdx[c.Pair()]; ok && j == i {
		delete(n.pairIdx, c.Pair())
	}
	return nil
}

// removeIndex deletes value v from a sorted index slice, preserving
// order.
func removeIndex(s []int, v int) []int {
	k := sort.SearchInts(s, v)
	if k < len(s) && s[k] == v {
		return append(s[:k], s[k+1:]...)
	}
	return s
}
