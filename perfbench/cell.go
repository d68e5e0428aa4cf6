package main

import (
	"fmt"
	"math"
	"os"
	"reflect"
	"time"

	"mil/internal/obs"
	"mil/internal/sim"
	"mil/internal/workload"
)

// cellOps is the milsim default run length.
const cellOps = sim.DefaultMemOps

// cell is the cell-long workload: the milsim default cell (server-ddr4,
// mil, GUPS, 6000 ops/thread), run in one goroutine.
type cell struct {
	o   options
	cfg sim.Config
	ref *sim.Result
}

func newCell(o options) (bench, error) {
	b, err := workload.ByName("GUPS")
	if err != nil {
		return nil, err
	}
	cfg := sim.Config{System: sim.Server, Scheme: "mil", Benchmark: b, MemOpsPerThread: cellOps, Seed: o.seed}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b.Lines() // lays the benchmark out
	return &cell{o: o, cfg: cfg}, nil
}

func (c *cell) label() string {
	return fmt.Sprintf("%s/%s/%s ops=%d seed=%d", c.cfg.System, c.cfg.Scheme, c.cfg.Benchmark.Name, cellOps, c.o.seed)
}

// reference runs the cell on the steplock reference loop and once on the
// event core; the two must agree on everything but the loop counters, and
// every timed run must then equal the event-core run exactly.
func (c *cell) reference(t *tally) error {
	step := c.cfg
	step.Steplock = true
	want, err := sim.Run(step)
	if err != nil {
		return fmt.Errorf("steplock reference: %w", err)
	}
	got, err := sim.Run(c.cfg)
	if err != nil {
		return fmt.Errorf("reference cell: %w", err)
	}
	failed := 0
	if !equalModuloLoop(want, got) {
		fmt.Fprintf(os.Stderr, "perfbench: %s: event core disagrees with the steplock loop\n", c.label())
		failed = 1
	}
	t.add(1, failed)
	c.ref = got
	return nil
}

func equalModuloLoop(a, b *sim.Result) bool {
	x, y := *a, *b
	x.Loop, y.Loop = sim.LoopStats{}, sim.LoopStats{}
	return sameResult(&x, &y)
}

// sameResult reports whether two Results agree exactly, except that
// DRAM.Codec may differ in its last bits: energy.DRAMEnergy sums it over
// the CodecBursts map in Go's random map order, so with three or more
// codecs it is not reproducible bit for bit.
func sameResult(a, b *sim.Result) bool {
	x, y := *a, *b
	if !closeFloat(x.DRAM.Codec, y.DRAM.Codec) {
		return false
	}
	x.DRAM.Codec, y.DRAM.Codec = 0, 0
	return reflect.DeepEqual(x, y)
}

// closeFloat reports whether a and b differ by at most a few units in the
// last place.
func closeFloat(a, b float64) bool {
	return a == b || math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b))
}

func (c *cell) iterate(sp *spanLog) (iteration, error) {
	var res *sim.Result
	var err error
	var start time.Time
	it := measure(func() {
		start = time.Now()
		res, err = sim.Run(c.cfg)
	})
	it.ops, it.cellMS = 1, []float64{it.wall * 1e3}
	switch {
	case err != nil:
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", c.label(), err)
		it.failed = 1
	case !sameResult(res, c.ref):
		fmt.Fprintf(os.Stderr, "perfbench: %s: result differs from the reference run\n", c.label())
		it.failed = 1
	}
	if res != nil {
		it.simCycles = res.CPUCycles
		it.counts = map[string]float64{
			"sim.events_fired":   float64(res.Loop.EventsFired),
			"sim.cycles_skipped": float64(res.Loop.CyclesSkipped),
			"sim.fresh_wall_s":   it.wall,
		}
	}
	sp.span("iteration", "sim.Run "+c.label(), start, start.Add(time.Duration(it.wall*1e9)))
	return it, nil
}

// obsRegistry runs the cell once with the metrics registry attached, for
// the counters only the obs layer keeps.
func (c *cell) obsRegistry(t *tally) (*obs.Registry, error) {
	reg := obs.NewRegistry()
	cfg := c.cfg
	cfg.Obs = &obs.Obs{Metrics: reg}
	res, err := sim.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("metrics run: %w", err)
	}
	failed := 0
	if !sameResult(res, c.ref) {
		fmt.Fprintf(os.Stderr, "perfbench: %s: metrics run differs from the reference run\n", c.label())
		failed = 1
	}
	t.add(1, failed)
	return reg, nil
}

func (c *cell) layers(m metricSet, its []iteration, tr tracedRun, t *tally) error {
	reg, err := c.obsRegistry(t)
	if err != nil {
		return err
	}
	return addLayers(m, layerInput{
		its: its, tr: tr, results: []*sim.Result{c.ref},
		streams: []streamSpec{{sim.Server, "GUPS", cellOps}}, seed: c.o.seed,
		probes: []sim.Config{c.cfg}, reg: reg,
	}, t)
}
