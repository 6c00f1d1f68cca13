package main

import (
	"fmt"
	"math/rand"
	"time"

	"schemanet"
	"schemanet/internal/constraints"
	"schemanet/internal/core"
)

// probeSetup attributes set-up work the public API does in one call
// (NewSession, or a store's first session access) to the layers behind
// it, by calling those layers' public functions the same way on a
// private copy of net: constraint compilation, partitioning, and the
// core's initial fill or enumeration. The spans are probes: timed, kept
// in the trace, and left out of self time, since the run itself paid
// for this work inside session.new or store.session.
func probeSetup(tr *tracer, net *schemanet.Network, rs int64, layer map[string]float64) error {
	net = net.Clone()
	id := tr.probe("constraints.compile", 0)
	engine := constraints.NewEngine(net,
		constraints.NewOneToOne(net), constraints.NewCycle(net, constraints.DefaultMaxCycleLen))
	tr.end(id)
	id = tr.probe("constraints.partition", 0)
	parts := engine.Components()
	tr.end(id)
	largest := 0
	for k := 0; k < parts.NumComponents(); k++ {
		largest = max(largest, len(parts.Members(k)))
	}
	layer["constraints.components"] = float64(parts.NumComponents())
	layer["constraints.largest_component"] = float64(largest)
	layer["constraints.violations"] = float64(engine.ViolationCount(engine.FullInstance()))

	cfg := core.DefaultConfig()
	cfg.Inference = core.InferAuto
	id = tr.probe("core.init", 0)
	pmn, err := core.New(engine, cfg, rand.New(rand.NewSource(rs)))
	tr.end(id)
	if err != nil {
		return fmt.Errorf("core init probe: %w", err)
	}
	if _, ok := layer["core.exact_components_start"]; !ok {
		exact := 0
		for k := 0; k < pmn.NumComponents(); k++ {
			if pmn.ComponentInference(k) == core.InferExact {
				exact++
			}
		}
		layer["core.exact_components_start"] = float64(exact)
	}
	return nil
}

// probeReplay replays one durable session's answers, in order, on a
// plain Session with the store's options, timing each Assert as a core
// probe. It attributes the durable loop's core and sampling work (the
// store serves a ConcurrentSession that applies the same assertions in
// the same order) and counts the components served exactly at the end.
func probeReplay(tr *tracer, net *schemanet.Network, rs int64, answers []answer, layer map[string]float64) error {
	s, err := schemanet.NewSession(net, &schemanet.Options{Seed: rs})
	if err != nil {
		return fmt.Errorf("replay probe: %w", err)
	}
	emitted := s.SamplingEmissions()
	start := emitted
	refills, refillTime := 0, time.Duration(0)
	for i, a := range answers {
		id := tr.probe("core.assert", i+1)
		t := time.Now()
		err := s.Assert(a.c, a.yes)
		d := time.Since(t)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("replay probe: step %d: %w", i+1, err)
		}
		if e := s.SamplingEmissions(); e > emitted {
			refills++
			refillTime += d
			emitted = e
		}
	}
	layer["core.exact_components_end"] = float64(countExact(s))
	layer["sampling.emissions"] = float64(emitted)
	layer["sampling.emissions_per_step"] = float64(emitted-start) / float64(len(answers))
	layer["sampling.refill_steps"] = float64(refills)
	layer["sampling.refill_ms_total"] = float64(refillTime) / float64(time.Millisecond)
	if emitted > start {
		layer["sampling.us_per_emission"] = float64(refillTime) / float64(time.Microsecond) / float64(emitted-start)
	}
	return nil
}

type answer struct {
	c   int
	yes bool
}
