package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"mil/internal/bitblock"
	"mil/internal/code"
	"mil/internal/cpu"
	"mil/internal/dram"
	"mil/internal/energy"
	"mil/internal/obs"
	"mil/internal/scheme"
	"mil/internal/sim"
	"mil/internal/trace"
	"mil/internal/workload"
)

// probeTrack is the span track of the benchmark's own calls into each
// layer's public entry points.
const probeTrack = "layer probes"

// layerInput is what a workload hands the per-layer report.
type layerInput struct {
	its []iteration
	tr  tracedRun
	// results are the per-cell Results of one iteration.
	results []*sim.Result
	// streams are the workload's front-end inputs.
	streams []streamSpec
	seed    uint64
	// probes are the cells timed fresh, recorded and replayed.
	probes []sim.Config
	// reg holds the obs counters of a metrics-attached iteration; nil where
	// attaching it is not possible.
	reg *obs.Registry
}

// countMetrics are the per-iteration counters also reported with their
// range over the run's iterations: a count may back a claim only when its
// range is 0.
var countMetrics = []string{
	"experiments.fresh_sims", "trace.hits", "trace.cluster_hits", "trace.cluster_trials",
	"trace.streams", "trace.fallbacks", "sim.events_fired",
}

// addLayers adds every per-layer metric; the traced run's span log
// receives the probe spans.
func addLayers(m metricSet, in layerInput, t *tally) error {
	prof, sp := in.tr.prof, in.tr.sp
	count := func(its []iteration, name string) []float64 {
		return field(its, func(it iteration) float64 { return it.counts[name] })
	}
	// med takes the timed iterations only: the traced ones run slower.
	med := func(name string) float64 { return median(count(in.its, name)) }
	wall := median(field(in.its, wallOf))

	all := append(append([]iteration(nil), in.its...), in.tr.its...)
	for _, name := range countMetrics {
		m.add(name, med(name), "count")
		m.add(name+".range", spread(count(all, name)), "count")
	}

	// experiments: the Runner's pool, per timed iteration.
	cells := med("experiments.cells")
	w := float64(workers())
	m.add("experiments.cells", cells, "count")
	busy, straggler := 0.0, 0.0
	if cells > 0 {
		busy = median(field(in.its, func(it iteration) float64 { return it.counts["experiments.cell_wall_s"] / (it.wall * w) }))
		straggler = median(field(in.its, func(it iteration) float64 { return it.wall - it.counts["experiments.cell_wall_s"]/w }))
	}
	m.add("experiments.pool_busy_frac", busy, "frac")
	m.add("experiments.straggler_s", straggler, "s")

	// trace: record/replay and the cluster store.
	hits, clHits, clTrials := med("trace.hits"), med("trace.cluster_hits"), med("trace.cluster_trials")
	m.add("trace.hit_frac", ratio(hits, cells), "frac")
	m.add("trace.replay_s", med("trace.replay_s"), "s")
	m.add("trace.cluster_yield", ratio(clHits, clTrials), "frac")
	m.add("trace.resident_mb", med("trace.resident_mb"), "MB")

	// sim/sched: the event core.
	fired, skipped := med("sim.events_fired"), med("sim.cycles_skipped")
	m.add("sim.cycles_skipped", skipped, "count")
	m.add("sim.skip_frac", ratio(skipped, fired+skipped), "frac")
	m.add("sim.host_ns_per_event", ratio(med("sim.fresh_wall_s")*1e9, fired), "ns/event")

	// Module self time from the traced phase's CPU profile.
	for _, mod := range selfModules {
		m.add("self_frac."+mod, ratio(float64(prof.selfNS[mod]), float64(prof.totalNS)), "frac")
	}
	m.add("profile.samples", float64(prof.samples), "count")

	// memctrl/dram, from the cells' Results and the obs counters.
	var bursts, cmds, retries int64
	for _, r := range in.results {
		bursts += r.Mem.ColumnCommands()
		cmds += r.Mem.Activates + r.Mem.Precharges + r.Mem.Reads + r.Mem.Writes + r.Mem.Refreshes
		retries += r.Mem.Retries()
	}
	tracedIters := float64(len(in.tr.its))
	m.add("memctrl.bursts", float64(bursts), "count")
	m.add("memctrl.self_ns_per_burst", ratio(float64(prof.selfNS["memctrl"]), float64(bursts)*tracedIters), "ns/burst")
	m.add("dram.self_ns_per_cmd", ratio(float64(prof.selfNS["dram"]), float64(cmds)*tracedIters), "ns/cmd")
	m.add("memctrl.retries", float64(retries), "count")
	full := float64(in.reg.Counter("wake_scan_full_total").Value())
	memo := float64(in.reg.Counter("wake_scan_memoized_total").Value())
	fast := float64(in.reg.Counter("wake_scan_fastpath_total").Value())
	m.add("memctrl.wake_scan_full", full, "count")
	m.add("memctrl.wake_scan_memoized", memo, "count")
	m.add("memctrl.wake_scan_fastpath", fast, "count")
	m.add("memctrl.full_scan_frac", ratio(full, full+memo+fast), "frac")

	modelLayer(m, in.results)

	// workload: the stream generators, and the blocks they touch.
	var blocks []bitblock.Block
	var err error
	sp.timed(probeTrack, "workload streams drain", func() {
		var ns float64
		ns, blocks, err = drainStreams(in.streams, in.seed)
		m.add("workload.gen_ns_per_op", ns, "ns/op")
	})
	if err != nil {
		return err
	}

	// code: the codec kernels on the workload's own lines.
	encNS, err := codecLayer(m, blocks, sp, t)
	if err != nil {
		return err
	}
	var est float64
	var untimed, total int64
	for _, r := range in.results {
		for name, n := range r.Mem.CodecBursts {
			total += n
			if ns, ok := encNS[name]; ok {
				est += float64(n) * ns / 1e9
			} else {
				untimed += n
			}
		}
	}
	if untimed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: code.phy_est_s leaves out %d of %d bursts (codecs with no standalone kernel)\n", untimed, total)
	}
	m.add("code.phy_est_s", est, "s")
	m.add("code.self_est_s", ratio(float64(prof.selfNS["code"]), float64(prof.totalNS))*wall, "s")

	// energy: the accounting a cell ends with.
	var us float64
	sp.timed(probeTrack, "energy.DRAMEnergy", func() { us = energyLayer(in.results, t) })
	m.add("energy.us_per_cell", us, "us")

	// sim: per-cell set-up, from sim.Run at 1 op per platform.
	for _, sys := range []sim.SystemKind{sim.Server, sim.Mobile} {
		var ms, mb float64
		sp.timed(probeTrack, "sim.Run 1 op "+sys.String(), func() { ms, mb, err = setupCost(sys) })
		if err != nil {
			return err
		}
		name := "server"
		if sys == sim.Mobile {
			name = "mobile"
		}
		m.add("sim.setup_ms."+name, ms, "ms")
		m.add("sim.setup_alloc_mb."+name, mb, "MB")
	}

	// trace: fresh, record and replay of the probe cells.
	return replayLayer(m, in.probes, sp, t)
}

// selfModules are the modules flat CPU samples are attributed to.
var selfModules = []string{
	"memctrl", "dram", "code", "cpu", "cache", "workload", "sim", "sched",
	"trace", "experiments", "milcore", "bitblock", "energy", "runtime", "other",
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// modelLayer adds simulated statistics summed over the cells. A change
// meant only to speed the simulator up must leave them identical.
func modelLayer(m metricSet, results []*sim.Result) {
	var acts, busy, ticks, latSum, reads, zeros, bursts, l2Miss, l2All int64
	for _, r := range results {
		s := r.Mem
		acts += s.Activates
		busy, ticks = busy+s.BusyCycles, ticks+s.Ticks
		latSum, reads = latSum+s.ReadLatencySum, reads+s.ReadsCompleted
		zeros, bursts = zeros+s.Zeros, bursts+s.ColumnCommands()
		l2Miss, l2All = l2Miss+r.Cache.L2Misses, l2All+r.Cache.L2Hits+r.Cache.L2Misses
	}
	// Stats.RowHits/RowMisses are never counted by the controller, so row
	// locality is reported as activations per column command.
	m.add("model.acts_per_burst", ratio(float64(acts), float64(bursts)), "count")
	m.add("model.bus_util", ratio(float64(busy), float64(ticks)), "frac")
	m.add("model.read_lat_cyc", ratio(float64(latSum), float64(reads)), "cycles")
	m.add("model.zeros_per_burst", ratio(float64(zeros), float64(bursts)), "count")
	m.add("model.l2_miss_frac", ratio(float64(l2Miss), float64(l2All)), "frac")
}

// streamSpec is one front end: a benchmark's streams as sim.Run builds
// them on a platform.
type streamSpec struct {
	system sim.SystemKind
	bench  string
	ops    int64
}

// mobileComputeScale is sim's compute padding multiplier for the mobile
// platform.
const mobileComputeScale = 44

func (s streamSpec) build(seed uint64) (*workload.Benchmark, []cpu.Stream, error) {
	b, err := workload.ByName(s.bench)
	if err != nil {
		return nil, nil, err
	}
	cfg := cpu.ServerConfig()
	if s.system == sim.Mobile {
		cfg = cpu.MobileConfig()
		b = b.WithComputeScale(mobileComputeScale)
	}
	streams, err := b.NewStreamsSeeded(cfg.Threads(), s.ops, seed)
	return b, streams, err
}

// drainStreams times the stream generators (host ns per generated op,
// memory and compute ops alike) and samples the blocks the workload's
// memory ops touch: LineData for loads, StoreData for stores.
func drainStreams(specs []streamSpec, seed uint64) (float64, []bitblock.Block, error) {
	const perSpec = 256
	var blocks []bitblock.Block
	for _, s := range specs {
		b, streams, err := s.build(seed)
		if err != nil {
			return 0, nil, err
		}
		stride := max(1, int64(len(streams))*s.ops/perSpec)
		var memOps int64
		var seq uint64
		for _, st := range streams {
			for op, ok := st.Next(); ok; op, ok = st.Next() {
				if op.Kind == cpu.OpCompute {
					continue
				}
				memOps++
				if memOps%stride != 0 {
					continue
				}
				line := op.Addr / 64
				if op.Kind == cpu.OpStore {
					seq++
					blocks = append(blocks, b.StoreData(line, seq))
				} else {
					blocks = append(blocks, b.LineData(line))
				}
			}
		}
	}

	var ops int64
	var spent time.Duration
	for spent < 300*time.Millisecond {
		for _, s := range specs {
			_, streams, err := s.build(seed)
			if err != nil {
				return 0, nil, err
			}
			start := time.Now()
			for _, st := range streams {
				for _, ok := st.Next(); ok; _, ok = st.Next() {
					ops++
				}
			}
			spent += time.Since(start)
		}
	}
	return float64(spent.Nanoseconds()) / float64(ops), blocks, nil
}

// Sinks keep the compiler from discarding benchmarked calls.
var (
	sinkInt   int
	sinkBlock bitblock.Block
)

// codecLayer checks and times every standalone codec on the blocks: each
// block must round-trip and its CostZeros must equal the encoded burst's
// zero count. It returns encode ns/op keyed by codec name.
func codecLayer(m metricSet, blocks []bitblock.Block, sp *spanLog, t *tally) (map[string]float64, error) {
	testing.Init()
	if err := flag.Set("test.benchtime", "50ms"); err != nil {
		return nil, err
	}
	n := len(blocks)
	if n == 0 {
		return nil, fmt.Errorf("no blocks sampled from the workload")
	}
	encNS := map[string]float64{}
	for _, name := range scheme.CodecNames() {
		c, err := scheme.Codec(name)
		if err != nil {
			return nil, err
		}
		bursts := make([]*bitblock.Burst, n)
		bad := 0
		for i := range blocks {
			bursts[i] = c.Encode(&blocks[i])
			got, err := c.Decode(bursts[i])
			if err != nil || got != blocks[i] || code.CostZeros(c, &blocks[i]) != bursts[i].CountZeros() {
				bad++
			}
		}
		failed := 0
		if bad > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: codec %s: %d of %d workload blocks failed round trip or CostZeros\n", name, bad, n)
			failed = 1
		}
		t.add(1, failed)

		var scratch bitblock.Burst
		kernels := []struct {
			op string
			f  func(i int)
		}{
			{"encode", func(i int) { code.EncodeInto(c, &blocks[i%n], &scratch) }},
			{"costzeros", func(i int) { sinkInt += code.CostZeros(c, &blocks[i%n]) }},
			{"decode", func(i int) { sinkBlock, _ = c.Decode(bursts[i%n]) }},
		}
		for _, k := range kernels {
			var ns float64
			sp.timed(probeTrack, "code "+name+" "+k.op, func() {
				r := testing.Benchmark(func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						k.f(i)
					}
				})
				ns = float64(r.T.Nanoseconds()) / float64(r.N)
			})
			m.add("code."+name+"."+k.op+"_ns", ns, "ns/op")
			if k.op == "encode" {
				encNS[name], encNS[c.Name()] = ns, ns
			}
		}
	}
	return encNS, nil
}

// platformEnergy mirrors sim's per-platform energy inputs.
func platformEnergy(sys sim.SystemKind) (energy.DRAMPower, dram.Config, energy.CPUPower) {
	if sys == sim.Mobile {
		return energy.LPDDR3Power(), dram.LPDDR3_1600(), energy.MobileCPUPower()
	}
	return energy.DDR4Power(), dram.DDR4_3200(), energy.ServerCPUPower()
}

const channels = 2

// energyLayer recomputes every cell's energy accounting, checks it against
// the cell's Result, and returns the host microseconds per cell.
func energyLayer(results []*sim.Result, t *tally) float64 {
	bad := 0
	for _, r := range results {
		power, dev, cpuPower := platformEnergy(r.System)
		b, err := energy.DRAMEnergy(power, dev, channels, r.Mem, r.DRAMCycles)
		cpuJ, retryJ := energy.CPUEnergy(cpuPower, r.Seconds, r.Instructions), energy.RetryEnergyJ(power, r.Mem)
		// Codec is a sum in map order; see sameResult.
		codecOK := closeFloat(b.Codec, r.DRAM.Codec)
		b.Codec = r.DRAM.Codec
		if err != nil || !codecOK || b != r.DRAM || cpuJ != r.CPUJ || retryJ != r.RetryJ {
			fmt.Fprintf(os.Stderr, "perfbench: energy of %s/%s/%s: DRAM %+v want %+v, CPU %v want %v, retry %v want %v (%v)\n",
				r.System, r.Scheme, r.Benchmark, b, r.DRAM, cpuJ, r.CPUJ, retryJ, r.RetryJ, err)
			bad++
		}
	}
	t.add(len(results), bad)
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: energy of %d of %d cells differs from their Results\n", bad, len(results))
	}
	var calls int
	start := time.Now()
	for time.Since(start) < 50*time.Millisecond {
		for _, r := range results {
			power, dev, cpuPower := platformEnergy(r.System)
			b, _ := energy.DRAMEnergy(power, dev, channels, r.Mem, r.DRAMCycles)
			sinkInt += int(b.Total() + energy.CPUEnergy(cpuPower, r.Seconds, r.Instructions) + energy.RetryEnergyJ(power, r.Mem))
			calls++
		}
	}
	return float64(time.Since(start).Microseconds()) / float64(calls)
}

// setupCost times sim.Run at 1 op per thread, which is almost all per-cell
// set-up, and returns its median host ms and MB allocated.
func setupCost(sys sim.SystemKind) (ms, mb float64, err error) {
	b, err := workload.ByName("GUPS")
	if err != nil {
		return 0, 0, err
	}
	cfg := sim.Config{System: sys, Scheme: "mil", Benchmark: b, MemOpsPerThread: 1}
	var times, allocs []float64
	for i := 0; i < 15; i++ {
		var a, z runtime.MemStats
		runtime.ReadMemStats(&a)
		start := time.Now()
		_, err := sim.Run(cfg)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&z)
		if err != nil {
			return 0, 0, err
		}
		times = append(times, float64(elapsed.Nanoseconds())/1e6)
		allocs = append(allocs, float64(z.TotalAlloc-a.TotalAlloc)/1e6)
	}
	return median(times), median(allocs), nil
}

// replayLayer runs each probe cell fresh, recording, and replaying its
// recording. A replay that diverges is reported, and its saving left
// unresolved; one that completes must equal the fresh Result. The saving
// is fresh minus replay host time, summed over the resolved cells.
func replayLayer(m metricSet, probes []sim.Config, sp *spanLog, t *tally) error {
	var diverged int
	var saving float64
	for _, cfg := range probes {
		label := fmt.Sprintf("%s/%s/%s ops=%d", cfg.System, cfg.Scheme, cfg.Benchmark.Name, cfg.MemOpsPerThread)
		var fresh, rec, rep *sim.Result
		var ferr, rerr, perr error
		var tr *trace.Trace
		var tFresh, tRep time.Duration
		sp.timed(probeTrack, "sim.Run fresh "+label, func() {
			start := time.Now()
			fresh, ferr = sim.Run(cfg)
			tFresh = time.Since(start)
		})
		rcfg := cfg
		rcfg.RecordTrace = func(x *trace.Trace) { tr = x }
		sp.timed(probeTrack, "sim.Run RecordTrace "+label, func() { rec, rerr = sim.Run(rcfg) })
		if ferr != nil || rerr != nil || tr == nil {
			return fmt.Errorf("replay probe %s: fresh %v, record %v", label, ferr, rerr)
		}
		pcfg := cfg
		pcfg.ReplayTrace = tr
		sp.timed(probeTrack, "sim.Run ReplayTrace "+label, func() {
			start := time.Now()
			rep, perr = sim.Run(pcfg)
			tRep = time.Since(start)
		})
		failed := 0
		if !sameResult(rec, fresh) {
			fmt.Fprintf(os.Stderr, "perfbench: %s: recording changed the result\n", label)
			failed = 1
		}
		switch {
		case perr != nil:
			diverged++
			fmt.Printf("trace.replay_diverged %s: %v (replay saving unresolved)\n", label, perr)
		case !sameResult(rep, fresh):
			fmt.Fprintf(os.Stderr, "perfbench: %s: replay completed with a different result\n", label)
			failed = 1
		default:
			saving += (tFresh - tRep).Seconds()
		}
		t.add(1, failed)
	}
	m.add("trace.replay_probes", float64(len(probes)), "count")
	m.add("trace.replay_diverged", float64(diverged), "count")
	m.add("trace.replay_saving_s", saving, "s")
	return nil
}
