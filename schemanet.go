// Package schemanet is a library for pay-as-you-go reconciliation in
// schema matching networks, reproducing Nguyen et al., ICDE 2014.
//
// A matching network is a set of schemas, an interaction graph saying
// which pairs must be matched, and candidate attribute correspondences
// produced by automatic matchers. Network-level integrity constraints
// (one-to-one, cycle) expose the matchers' mistakes as violations; an
// expert resolves them by approving/disapproving correspondences. This
// package maintains a probabilistic matching network under that
// feedback, orders the expert's work by information gain, and can
// instantiate a trusted, constraint-consistent matching at any time.
//
// Typical use:
//
//	net := /* build or match a network */
//	s, err := schemanet.NewSession(net, nil)
//	for i := 0; i < budget; i++ {
//		c, ok := s.Suggest()
//		if !ok {
//			break
//		}
//		s.Assert(c, expertSaysCorrect(c))
//	}
//	trusted := s.Instantiate() // consistent matching, any time
package schemanet

import (
	"errors"
	"fmt"
	"io"
	"math/rand"

	"schemanet/internal/constraints"
	"schemanet/internal/core"
	"schemanet/internal/datagen"
	"schemanet/internal/instantiate"
	"schemanet/internal/matcher"
	"schemanet/internal/sampling"
	"schemanet/internal/schema"
)

// Re-exported model types; see the schema package for details.
type (
	// Network is an immutable schema matching network.
	Network = schema.Network
	// Builder assembles a Network.
	Builder = schema.Builder
	// Dataset bundles a network with its ground-truth matching.
	Dataset = schema.Dataset
	// Matching is a set of attribute correspondences.
	Matching = schema.Matching
	// Correspondence is a scored attribute pair.
	Correspondence = schema.Correspondence
	// AttrID identifies an attribute.
	AttrID = schema.AttrID
	// SchemaID identifies a schema.
	SchemaID = schema.SchemaID
	// Matcher produces candidate correspondences for a network.
	Matcher = matcher.Matcher
	// Assertion is one expert statement about a candidate
	// correspondence, used by the batch APIs (Session.AssertBatch).
	Assertion = core.Assertion
	// InferenceMode identifies a per-component estimation backend; see
	// Options.Inference and Session.InferenceOf.
	InferenceMode = core.InferenceMode
)

// The estimation backends a component can be served by. InferenceAuto
// only ever appears in configuration — InferenceOf always reports
// InferenceSampled or InferenceExact.
const (
	InferenceSampled = core.InferSampled
	InferenceExact   = core.InferExact
	InferenceAuto    = core.InferAuto
)

// NewBuilder starts assembling a network.
func NewBuilder() *Builder { return schema.NewBuilder() }

// NewMatching returns an empty matching.
func NewMatching() *Matching { return schema.NewMatching() }

// EncodeDataset serializes a dataset to JSON.
func EncodeDataset(w io.Writer, d *Dataset) error { return schema.EncodeDataset(w, d) }

// DecodeDataset parses a dataset from JSON.
func DecodeDataset(r io.Reader) (*Dataset, error) { return schema.DecodeDataset(r) }

// COMALike returns the built-in parallel composite matcher.
func COMALike() Matcher { return matcher.NewCOMALike() }

// AMCLike returns the built-in process-tree matcher.
func AMCLike() Matcher { return matcher.NewAMCLike() }

// Match runs the matcher over every interaction edge of net and returns
// the network carrying the produced candidate correspondences.
func Match(net *Network, m Matcher) (*Network, error) {
	return net.WithCandidates(m.Match(net))
}

// GenerateDataset builds a synthetic dataset from a named profile
// ("bp", "po", "uaf", "webform" — the paper's Table II shapes — or
// "multicomp", a small-component-heavy shape whose candidate set
// decomposes into many small constraint-connected components),
// optionally scaled (scale 1 = the profile's full shape).
func GenerateDataset(profile string, scale float64, seed int64) (*Dataset, error) {
	var p datagen.Profile
	switch profile {
	case "bp", "BP":
		p = datagen.BP()
	case "po", "PO":
		p = datagen.PO()
	case "uaf", "UAF":
		p = datagen.UAF()
	case "webform", "WebForm":
		p = datagen.WebForm()
	case "multicomp", "MultiComp":
		p = datagen.MultiComp()
	default:
		return nil, fmt.Errorf("schemanet: unknown profile %q", profile)
	}
	if scale > 0 && scale < 1 {
		p = datagen.Scale(p, scale)
	}
	return datagen.Generate(p, rand.New(rand.NewSource(seed)))
}

// Options configures a reconciliation session. The zero value (or nil)
// selects the paper's defaults: one-to-one + cycle constraints,
// sampling-based probabilities, information-gain ordering.
type Options struct {
	// MaxCycleLen bounds schema-cycle enumeration for the cycle
	// constraint (default 3; <3 disables the constraint's effect).
	MaxCycleLen int
	// DisableCycle drops the cycle constraint entirely.
	DisableCycle bool
	// DisableOneToOne drops the one-to-one constraint.
	DisableOneToOne bool
	// Samples per (re)sampling round (default 500).
	Samples int
	// MinSamples, MaxSamples, and Convergence enable the *adaptive*
	// refill budget: instead of one fixed Samples-sized refill per
	// touched component, emissions come in chunks of MinSamples (the
	// first chunk sized to the store's n_min deficit, so samples that
	// survived view maintenance count toward the target), capped at
	// MaxSamples per round, stopping as soon as no marginal probability
	// of the component moved by more than Convergence across a chunk —
	// small or near-resolved components stop early, hubs keep their
	// budget. Setting any one of the three enables the loop; the others
	// default (MinSamples 100, MaxSamples max(Samples, MinSamples),
	// Convergence 0.01). All three zero keeps the fixed budget, whose
	// sampling streams are bit-identical to previous releases. The
	// adaptive stop is a pure function of component state and the
	// component's rng stream, so determinism under Seed — including
	// serial/concurrent equality on component-disjoint schedules — is
	// unchanged. MinSamples > MaxSamples (both set) is rejected;
	// Convergence must lie in [0,1]. See DESIGN.md, "Adaptive sampling
	// and sample reuse".
	MinSamples int
	// MaxSamples caps total emissions per adaptive refill round; see
	// MinSamples.
	MaxSamples int
	// Convergence is the adaptive early-stop threshold ε; see MinSamples.
	Convergence float64
	// StagnationLimit ends a component's sampling round early after this
	// many consecutive emissions that discovered no new distinct
	// instance. 0 selects a component-scaled default, except on a
	// network that forms one constraint component when the session is
	// built: that component never stops early, and it keeps that
	// setting when a later topology change carries it unchanged.
	// Negative values are rejected by NewSession.
	StagnationLimit int
	// Inference selects the per-component estimation backend:
	//
	//   - "auto" (the default): exact enumeration for every component
	//     whose instance space fits ExactBudget, sampling for the rest —
	//     and a sampled component is *promoted* to exact mid-session once
	//     assertions shrink its free-candidate count below the budget, so
	//     long sessions converge to fully exact tails. Exact components
	//     serve noise-free probabilities, entropy, and information gain.
	//   - "sampled": the paper's sampler everywhere (the pre-hybrid
	//     behavior).
	//   - "exact": exhaustive enumeration everywhere. With ExactBudget 0
	//     the enumeration is unbounded (feasible only for small
	//     components); with a budget, NewSession fails with
	//     ErrExactBudgetExceeded when any component overflows it.
	//
	// Session.InferenceOf reports the backend serving each component.
	// See DESIGN.md, "Hybrid inference".
	Inference string
	// ExactBudget caps the per-component instance enumeration of the
	// exact backend (and, proportionally, its search work — a budgeted
	// enumeration attempt costs O(budget) even on huge components).
	// 0 means a built-in default under "auto" and unlimited under
	// "exact". Negative values are rejected by NewSession.
	ExactBudget int
	// InstantiateIterations bounds the local search of Instantiate
	// (default 200).
	InstantiateIterations int
	// Strategy selects the suggestion ordering: "info-gain" (default,
	// the paper's heuristic), "random" (no-tool baseline),
	// "least-certain", or "by-confidence".
	Strategy string
	// Workers bounds the goroutines of the information-gain ranking
	// passes that back Suggest, which shard one component's uncertain
	// members. 0 uses all CPUs (GOMAXPROCS); 1 forces a sequential
	// pass. Assertions and instantiation are unaffected.
	Workers int
	// ExclusivePairs declares attribute pairs that must never be matched
	// together (a custom MutualExclusion constraint on top of the
	// paper's Γ). Each entry must name two distinct attributes of the
	// network; NewSession rejects any other.
	ExclusivePairs [][2]AttrID
	// Seed makes the session deterministic.
	Seed int64

	// The reference paths the differential tests compare against; set
	// only by tests, see export_test.go. exhaustiveRank selects the
	// core's exhaustive reference ranking (core.Config.ExhaustiveRank);
	// interpreted the interpreted constraint engine instead of the
	// compiled conflict index (which also disables decomposition: the
	// partition is derived from the compiled index); monolithic one
	// global sample space instead of one per component.
	exhaustiveRank bool
	interpreted    bool
	monolithic     bool
}

func (o *Options) withDefaults() Options {
	var out Options
	if o != nil {
		out = *o
	}
	if out.MaxCycleLen == 0 {
		out.MaxCycleLen = constraints.DefaultMaxCycleLen
	}
	if out.InstantiateIterations == 0 {
		out.InstantiateIterations = instantiate.DefaultConfig().Iterations
	}
	return out
}

// validate rejects option values that previously flowed into the core
// configuration unchecked and produced silent misbehavior (a negative
// Samples count disabled resampling entirely, a negative worker bound
// fell back to GOMAXPROCS by accident rather than by contract, an
// ExclusivePairs entry naming an unknown attribute was ignored). The
// serving layer owns input validation: core packages may assume a
// well-formed configuration.
func (o *Options) validate(net *Network) error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"MaxCycleLen", o.MaxCycleLen},
		{"Samples", o.Samples},
		{"MinSamples", o.MinSamples},
		{"MaxSamples", o.MaxSamples},
		{"StagnationLimit", o.StagnationLimit},
		{"InstantiateIterations", o.InstantiateIterations},
		{"Workers", o.Workers},
		{"ExactBudget", o.ExactBudget},
	} {
		if f.v < 0 {
			return fmt.Errorf("schemanet: Options.%s must be non-negative, got %d", f.name, f.v)
		}
	}
	// NaN fails the interval test too (comparisons with NaN are false).
	if !(o.Convergence >= 0 && o.Convergence <= 1) {
		return fmt.Errorf("schemanet: Options.Convergence must be in [0,1], got %v", o.Convergence)
	}
	if o.MaxSamples > 0 && o.MinSamples > o.MaxSamples {
		return fmt.Errorf("schemanet: Options.MinSamples (%d) must not exceed Options.MaxSamples (%d)",
			o.MinSamples, o.MaxSamples)
	}
	for i, p := range o.ExclusivePairs {
		for _, a := range p {
			if a < 0 || int(a) >= net.NumAttributes() {
				return fmt.Errorf("schemanet: Options.ExclusivePairs[%d] names attribute %d, outside the network's %d attributes",
					i, a, net.NumAttributes())
			}
		}
		if p[0] == p[1] {
			return fmt.Errorf("schemanet: Options.ExclusivePairs[%d] pairs attribute %d with itself", i, p[0])
		}
	}
	if o.DisableOneToOne && o.DisableCycle && len(o.ExclusivePairs) == 0 {
		return fmt.Errorf("schemanet: at least one constraint is required")
	}
	if _, err := o.inferenceMode(); err != nil {
		return err
	}
	_, err := o.strategy()
	return err
}

// strategy resolves the Strategy string; nil selects the default
// info-gain ordering, which Session.Suggest serves from its snapshots.
func (o *Options) strategy() (core.Strategy, error) {
	switch o.Strategy {
	case "", "info-gain":
		return nil, nil
	case "random":
		return core.RandomStrategy{}, nil
	case "least-certain":
		return core.LeastCertainStrategy{}, nil
	case "by-confidence":
		return core.ByConfidenceStrategy{}, nil
	}
	return nil, fmt.Errorf("schemanet: unknown strategy %q", o.Strategy)
}

// inferenceMode resolves the Inference string into the core mode.
func (o *Options) inferenceMode() (core.InferenceMode, error) {
	switch o.Inference {
	case "", "auto":
		return core.InferAuto, nil
	case "sampled":
		return core.InferSampled, nil
	case "exact":
		return core.InferExact, nil
	}
	return 0, fmt.Errorf("schemanet: unknown inference mode %q (want \"auto\", \"sampled\", or \"exact\")", o.Inference)
}

// ErrUnknownCandidate reports a candidate index outside the network's
// candidate universe. Session returns it (wrapped with the offending
// index) instead of panicking: a serving layer must never crash on bad
// input.
var ErrUnknownCandidate = errors.New("schemanet: unknown candidate")

// ErrAlreadyAsserted reports an Assert on a candidate that already
// carries an assertion. Under concurrent serving this is a routine,
// benign collision — two experts can be handed the same suggestion and
// the loser's Assert fails with it — so classify it with errors.Is and
// retry Suggest rather than treating it as a failure.
var ErrAlreadyAsserted = core.ErrAlreadyAsserted

// ErrExactBudgetExceeded reports that a component's matching-instance
// enumeration overflowed Options.ExactBudget under Options.Inference =
// "exact". NewSession returns it (wrapped, with the offending
// component) instead of silently degrading: forcing exact inference is
// a correctness request, so the caller decides whether to raise the
// budget or switch to "auto" (which falls back to sampling on its own).
var ErrExactBudgetExceeded = core.ErrExactBudgetExceeded

// NewSession builds a session for the network's candidate
// correspondences and computes the initial probabilities. The returned
// Session is safe for concurrent use; see Session.
func NewSession(net *Network, opts *Options) (*Session, error) {
	if net.NumCandidates() == 0 {
		return nil, fmt.Errorf("schemanet: network has no candidate correspondences; run Match first")
	}
	o := opts.withDefaults()
	if err := o.validate(net); err != nil {
		return nil, err
	}
	// The session owns a private copy of the network: the topology
	// mutators (AddSchema, AddCandidates, RetireCandidate) grow it in
	// place, which must never be visible through the caller's pointer.
	net = net.Clone()
	var cons []constraints.Constraint
	if !o.DisableOneToOne {
		cons = append(cons, constraints.NewOneToOne(net))
	}
	if !o.DisableCycle {
		cons = append(cons, constraints.NewCycle(net, o.MaxCycleLen))
	}
	if len(o.ExclusivePairs) > 0 {
		cons = append(cons, constraints.NewMutualExclusion(net, o.ExclusivePairs))
	}
	newEngine := constraints.NewEngine
	if o.interpreted {
		newEngine = constraints.NewInterpreted
	}
	engine := newEngine(net, cons...)
	// Both resolve: validate checked them.
	strat, _ := o.strategy()
	mode, _ := o.inferenceMode()

	cfg := core.DefaultConfig()
	cfg.Sampler = sampling.DefaultConfig()
	if o.Samples > 0 {
		cfg.Samples = o.Samples
	}
	cfg.MinSamples = o.MinSamples
	cfg.MaxSamples = o.MaxSamples
	cfg.Convergence = o.Convergence
	if o.StagnationLimit > 0 {
		cfg.Sampler.StagnationLimit = o.StagnationLimit
	}
	cfg.Inference = mode
	cfg.ExactBudget = o.ExactBudget
	cfg.Workers = o.Workers
	cfg.Monolithic = o.monolithic
	cfg.ExhaustiveRank = o.exhaustiveRank

	rng := rand.New(rand.NewSource(o.Seed))
	pmn, err := core.New(engine, cfg, rng)
	if err != nil {
		return nil, fmt.Errorf("schemanet: %w", err)
	}
	pmn.SetTopoSeed(o.Seed)
	s := &Session{
		engine:        engine,
		pmn:           pmn,
		strategy:      strat,
		instCfg:       instantiate.DefaultConfig(),
		rng:           rng,
		workers:       o.Workers,
		fixedTopology: o.monolithic || o.interpreted,
	}
	s.instCfg.Iterations = o.InstantiateIterations
	s.rebuildTables(nil)
	return s, nil
}
