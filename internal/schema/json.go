package schema

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// DatasetJSON is the on-disk representation of a dataset: the schemas,
// the interaction edges, candidate correspondences (optional), and the
// ground-truth selective matching (optional). Attributes are referenced
// as "SchemaName.attributeName".
type DatasetJSON struct {
	Name        string          `json:"name"`
	Schemas     []SchemaJSON    `json:"schemas"`
	Edges       [][2]string     `json:"edges"`
	Candidates  []CandidateJSON `json:"candidates,omitempty"`
	GroundTruth [][2]string     `json:"ground_truth,omitempty"`
}

// SchemaJSON is one schema with its attribute names.
type SchemaJSON struct {
	Name       string   `json:"name"`
	Attributes []string `json:"attributes"`
}

// CandidateJSON is one candidate correspondence between two attribute
// references with a matcher confidence.
type CandidateJSON struct {
	From       string  `json:"from"`
	To         string  `json:"to"`
	Confidence float64 `json:"confidence"`
}

// Dataset bundles a network with its ground-truth selective matching.
type Dataset struct {
	Name        string
	Network     *Network
	GroundTruth *Matching
}

// EncodeDataset serializes a dataset to JSON.
func EncodeDataset(w io.Writer, d *Dataset) error {
	net := d.Network
	out := DatasetJSON{Name: d.Name}
	for _, s := range net.Schemas() {
		sj := SchemaJSON{Name: s.Name}
		for _, a := range s.Attrs {
			sj.Attributes = append(sj.Attributes, net.AttrName(a))
		}
		out.Schemas = append(out.Schemas, sj)
	}
	for _, e := range net.Interaction().Edges() {
		out.Edges = append(out.Edges, [2]string{
			net.SchemaByID(SchemaID(e.U)).Name,
			net.SchemaByID(SchemaID(e.V)).Name,
		})
	}
	for i := 0; i < net.NumCandidates(); i++ {
		c := net.Candidate(i)
		out.Candidates = append(out.Candidates, CandidateJSON{
			From:       net.FullName(c.A),
			To:         net.FullName(c.B),
			Confidence: c.Confidence,
		})
	}
	if d.GroundTruth != nil {
		for _, p := range d.GroundTruth.Pairs() {
			out.GroundTruth = append(out.GroundTruth, [2]string{
				net.FullName(p[0]), net.FullName(p[1]),
			})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// DecodeDataset parses a dataset from JSON and rebuilds the network.
func DecodeDataset(r io.Reader) (*Dataset, error) {
	var in DatasetJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("schema: decoding dataset: %w", err)
	}
	b := NewBuilder()
	schemaIDs := make(map[string]SchemaID, len(in.Schemas))
	attrIDs := make(map[string]AttrID)
	for _, sj := range in.Schemas {
		if _, dup := schemaIDs[sj.Name]; dup {
			return nil, fmt.Errorf("schema: duplicate schema name %q", sj.Name)
		}
		id := b.AddSchema(sj.Name, sj.Attributes...)
		if b.err != nil {
			// A rejected attribute (empty or duplicate name) is skipped, so
			// the schema's Attrs no longer line up with the input.
			return nil, b.err
		}
		schemaIDs[sj.Name] = id
		for j, an := range sj.Attributes {
			attrIDs[sj.Name+"."+an] = b.schemas[id].Attrs[j]
		}
	}
	for _, e := range in.Edges {
		s1, ok1 := schemaIDs[e[0]]
		s2, ok2 := schemaIDs[e[1]]
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("schema: edge %v references unknown schema", e)
		}
		b.Connect(s1, s2)
	}
	resolve := func(ref string) (AttrID, error) {
		if id, ok := attrIDs[ref]; ok {
			return id, nil
		}
		if !strings.Contains(ref, ".") {
			return 0, fmt.Errorf("schema: attribute reference %q is not Schema.attr", ref)
		}
		return 0, fmt.Errorf("schema: unknown attribute reference %q", ref)
	}
	for _, cj := range in.Candidates {
		a, err := resolve(cj.From)
		if err != nil {
			return nil, err
		}
		bb, err := resolve(cj.To)
		if err != nil {
			return nil, err
		}
		b.AddCorrespondence(a, bb, cj.Confidence)
	}
	net, err := b.Build()
	if err != nil {
		return nil, err
	}
	d := &Dataset{Name: in.Name, Network: net}
	if len(in.GroundTruth) > 0 {
		gt := NewMatching()
		for _, p := range in.GroundTruth {
			a, err := resolve(p[0])
			if err != nil {
				return nil, err
			}
			bb, err := resolve(p[1])
			if err != nil {
				return nil, err
			}
			gt.Add(a, bb)
		}
		d.GroundTruth = gt
	}
	return d, nil
}
