package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"github.com/gms-sim/gmsubpage/internal/core"
	"github.com/gms-sim/gmsubpage/internal/sim"
	"github.com/gms-sim/gmsubpage/internal/trace"
	"github.com/gms-sim/gmsubpage/internal/units"
)

// simPolicies are the Fig 9 transfer policies the cells run.
var simPolicies = []string{"eager", "pipelined"}

// cellKey names one Fig 9 cell at one trace scale.
type cellKey struct {
	scale       float64
	app, policy string
}

// pinnedCell is what sim.Run must report for a cell.
type pinnedCell struct {
	faults, bytesMoved int64
	runtimeMs          float64
}

// pinned holds the exact results of every cell at the benchmark's scales,
// with ½ memory and 1 KB subpages. The simulator is deterministic, so any
// difference is a change in its output, not noise.
var pinned = map[cellKey]pinnedCell{
	{0.02, "modula3", "eager"}:      {97, 794624, 121.06392},
	{0.02, "modula3", "pipelined"}:  {97, 794624, 89.429748},
	{0.02, "ld", "eager"}:           {215, 1761280, 256.5498},
	{0.02, "ld", "pipelined"}:       {215, 1761280, 182.206692},
	{0.02, "atom", "eager"}:         {66, 540672, 83.105364},
	{0.02, "atom", "pipelined"}:     {66, 540672, 61.967028},
	{0.02, "render", "eager"}:       {34, 278528, 96.686676},
	{0.02, "render", "pipelined"}:   {34, 278528, 81.785556},
	{0.02, "gdb", "eager"}:          {72, 589824, 74.6784},
	{0.02, "gdb", "pipelined"}:      {72, 589824, 56.650032},
	{0.005, "modula3", "eager"}:     {103, 843776, 111.249348},
	{0.005, "modula3", "pipelined"}: {103, 843776, 78.025896},
	{0.005, "ld", "eager"}:          {67, 548864, 78.87816},
	{0.005, "ld", "pipelined"}:      {67, 548864, 56.636292},
	{0.005, "atom", "eager"}:        {67, 548864, 71.840916},
	{0.005, "atom", "pipelined"}:    {67, 548864, 50.049936},
	{0.005, "render", "eager"}:      {40, 327680, 60.29442},
	{0.005, "render", "pipelined"}:  {40, 327680, 46.3074},
	{0.005, "gdb", "eager"}:         {72, 589824, 74.669604},
	{0.005, "gdb", "pipelined"}:     {72, 589824, 56.642844},
}

// simApps is sim-apps: the simulator runs the Fig 9 cells — all five apps
// at ½ memory and 1 KB subpages, eager and pipelined — one at a time, in a
// seeded order per round. The traces are the paper's fixed app traces;
// the seed orders the cells. Trace synthesis is set-up. The op is one
// cell.
type simApps struct {
	opt   options
	scale float64
	apps  []*trace.App
	genS  []float64
	rng   *rand.Rand
	cells []cellKey
	byApp map[string]*trace.App
}

func newSimApps(opt options) *simApps {
	w := &simApps{opt: opt, scale: 0.02, rng: rand.New(rand.NewSource(opt.seed))}
	if opt.tiny {
		w.scale = 0.005
	}
	return w
}

func (w *simApps) describe() description {
	return description{
		sizes: map[string]any{"apps": "modula3 ld atom render gdb", "scale": w.scale,
			"policies": "eager pipelined", "mem_fraction": 0.5, "subpage": subpageSize, "cells": 10},
		aliases: map[string]string{"op_p50_us": "cell_p50_us", "op_p90_us": "cell_p90_us",
			"rate_per_s": "sim_refs_per_s"},
	}
}

func (w *simApps) setup(rep int) error {
	apps, gen := genTraces(w.scale, rep)
	w.genS = append(w.genS, gen)
	if rep == 0 {
		w.apps = apps
		w.byApp = make(map[string]*trace.App)
		w.cells = nil
		for _, a := range apps {
			w.byApp[a.Name] = a
			for _, pol := range simPolicies {
				w.cells = append(w.cells, cellKey{w.scale, a.Name, pol})
			}
		}
	}
	return nil
}

// cellResult is one cell's run.
type cellResult struct {
	dur    time.Duration
	events int64
	res    *sim.Result
}

func (w *simApps) runCell(k cellKey) (cellResult, error) {
	pol, err := core.ByName(k.policy)
	if err != nil {
		return cellResult{}, err
	}
	t0 := clock()
	r := sim.Run(sim.Config{App: w.byApp[k.app], MemFraction: 0.5, Policy: pol, SubpageSize: subpageSize})
	return cellResult{dur: since(t0), events: r.Events, res: r}, nil
}

func (w *simApps) measure(d time.Duration, rec *tracer) (*phase, error) {
	ph := timed(d)
	ph.counters = make(map[string]float64)
	var ln *lane
	if rec != nil {
		ln = rec.lane()
	}
	start := clock()
	for round := 0; since(start) < d || round == 0; round++ {
		var roundNs float64
		for _, i := range w.rng.Perm(len(w.cells)) {
			k := w.cells[i]
			cr, err := w.runCell(k)
			if err != nil {
				return nil, err
			}
			ph.attempted++
			want, ok := pinned[k]
			r := cr.res
			if !ok || r.Faults != want.faults || r.BytesMoved != want.bytesMoved || r.RuntimeMs() != want.runtimeMs {
				ph.fail(true, int64(since(start)))
				fmt.Fprintf(os.Stderr, "perfbench: mismatch %s/%s at scale %g: faults=%d bytes=%d runtime_ms=%v, pinned %+v\n",
					k.app, k.policy, k.scale, r.Faults, r.BytesMoved, r.RuntimeMs(), want)
				continue
			}
			ph.checked += 3
			ph.done(cr.dur, int64(since(start)), float64(cr.events))
			roundNs += float64(cr.dur)
			if ln != nil {
				op := ln.op()
				end := ln.t.now()
				begin := end - int64(cr.dur)
				root := ln.add(op, -1, "op.sim_cell", begin, end)
				ln.add(op, root, "sim.Run", begin, end)
				ph.counters["sim."+k.app+"."+k.policy+".ns"] += float64(cr.dur)
				ph.counters["sim."+k.app+"."+k.policy+".events"] += float64(cr.events)
				ph.counters["sim.faults"] += float64(r.Faults)
				ph.counters["sim.bytes_moved"] += float64(r.BytesMoved)
			}
		}
		ph.counters["rounds.ns"] += roundNs
		ph.counters["rounds"]++
	}
	return ph, nil
}

func (w *simApps) layers(untraced, traced *phase, rec *tracer, m map[string]float64) error {
	var ns, events float64
	for _, k := range w.cells {
		kn, ke := traced.counters["sim."+k.app+"."+k.policy+".ns"], traced.counters["sim."+k.app+"."+k.policy+".events"]
		m["sim."+k.app+"."+k.policy+".ns_per_ref"] = ratio(kn, ke)
		ns += kn
		events += ke
	}
	m["sim.ns_per_ref"] = ratio(ns, events)
	m["sim.run_s"] = ratio(traced.counters["rounds.ns"], traced.counters["rounds"]) / 1e9
	// One round's exact counts: every cell once.
	rounds := traced.counters["rounds"]
	m["sim.events"] = ratio(events, rounds)
	m["sim.faults"] = ratio(traced.counters["sim.faults"], rounds)
	m["sim.bytes_moved"] = ratio(traced.counters["sim.bytes_moved"], rounds)
	m["trace.read_ns_per_ref"] = traceReadNs(w.apps)
	m["trace.gen_s"] = median(w.genS)

	// The wire format and plan at the cells' shapes, for a fault at a
	// seeded offset.
	rng := rand.New(rand.NewSource(w.opt.seed))
	offs := make([]int, 4096)
	for i := range offs {
		offs[i] = rng.Intn(units.PageSize)
	}
	var shapes []batchShape
	for _, pol := range simPolicies {
		s, err := planShapes(pol, offs[0])
		if err != nil {
			return err
		}
		shapes = append(shapes, s...)
	}
	return cpuProbes(m, shapes, simPolicies, offs)
}

func (w *simApps) close() {}
