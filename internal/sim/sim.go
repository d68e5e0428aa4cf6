package sim

import (
	"errors"
	"fmt"
	"time"

	"mil/internal/cache"
	"mil/internal/cpu"
	"mil/internal/dram"
	"mil/internal/energy"
	"mil/internal/fault"
	"mil/internal/memctrl"
	"mil/internal/obs"
	"mil/internal/sched"
	"mil/internal/trace"
	"mil/internal/workload"
)

// Config is one simulation run.
type Config struct {
	System    SystemKind
	Scheme    string
	Benchmark *workload.Benchmark
	// MemOpsPerThread is each hardware thread's memory-operation budget
	// (the run length dial). Zero selects the default.
	MemOpsPerThread int64
	// LookaheadX overrides MiL's look-ahead distance when > 0 (Figure 21).
	LookaheadX int
	// MaxCPUCycles aborts runaway runs; zero selects a generous default.
	MaxCPUCycles int64
	// Verify makes every phy decode and check each burst (slower).
	Verify bool
	// PowerDown enables the Section 7.3 fast power-down extension
	// (Extension 3 in EXPERIMENTS.md).
	PowerDown bool
	// Obs, when non-nil, attaches the observability layer (metrics
	// registry and/or Perfetto trace; see internal/obs). The registry may
	// be shared across runs — all its updates commute — but a trace
	// recorder must belong to a single run. Nil costs nothing.
	Obs *obs.Obs

	// Fault injects link errors into every channel's data bus; the zero
	// value is a reliable link and the whole fault path is a no-op.
	Fault fault.Config
	// WriteCRC enables DDR4 write CRC (per-write CRC-8, ALERT_n NACK and
	// replay). Server system only.
	WriteCRC bool
	// CAParity enables DDR4 command/address parity (command reject and
	// replay). Server system only.
	CAParity bool
	// Retry bounds the NACK-replay path; zero fields select the defaults.
	Retry memctrl.RetryConfig
	// Seed perturbs every stochastic path of the run - the workload's
	// access-pattern streams and the per-channel fault injectors - so runs
	// are bit-reproducible per seed. Seed 0 selects the legacy
	// (benchmark-derived) streams.
	Seed uint64
	// Steplock selects the per-cycle reference loop instead of the
	// event-driven core. Both produce byte-identical Results (modulo the
	// Loop counters); the reference mode exists so the differential tests
	// can prove it, and as a debugging fallback.
	Steplock bool

	// Deadline, when non-zero, aborts the run with ErrDeadline once the
	// wall clock passes it (polled every few thousand landed cycles). The
	// experiment runner uses it for per-cell timeouts.
	Deadline time.Time

	// The fields below control trace record/replay (DESIGN.md §5.11).
	// Neither enters FrontEndKey: recording never changes a result, and a
	// replayed run must report results under the replaying cell's own
	// configuration.

	// RecordTrace, when non-nil, receives the run's memory trace — the
	// ordered request stream at the cache↔memctrl boundary plus the
	// front-end totals — after the run completes. Recording is
	// result-neutral.
	RecordTrace func(*trace.Trace)
	// ReplayTrace, when non-nil, drives the memory system directly from
	// the trace instead of simulating cores, caches, and workload streams.
	// The caller is responsible for the front-end match (the sweep engine
	// keys its trace store by each cell's FrontEndKey) —
	// and the replay driver independently verifies every acceptance and
	// completion cycle against the trace, failing loudly on divergence.
	ReplayTrace *trace.Trace
}

// Validate reports configuration errors before any machinery is built.
func (c *Config) Validate() error {
	if c.Benchmark == nil {
		return fmt.Errorf("sim: nil benchmark (pick one from workload.Suite)")
	}
	if c.MemOpsPerThread < 0 {
		return fmt.Errorf("sim: memory-op budget %d < 0 (0 selects the default %d)",
			c.MemOpsPerThread, DefaultMemOps)
	}
	if c.LookaheadX < 0 {
		return fmt.Errorf("sim: look-ahead override %d < 0 (0 keeps the scheme default)", c.LookaheadX)
	}
	if c.MaxCPUCycles < 0 {
		return fmt.Errorf("sim: CPU cycle limit %d < 0 (0 selects the default)", c.MaxCPUCycles)
	}
	if err := c.Fault.Validate(); err != nil {
		return err
	}
	if err := c.Retry.Validate(); err != nil {
		return err
	}
	if (c.WriteCRC || c.CAParity) && c.System != Server {
		return fmt.Errorf("sim: write CRC / CA parity are DDR4 features; %s models LPDDR3", c.System)
	}
	if c.ReplayTrace != nil && c.RecordTrace != nil {
		return fmt.Errorf("sim: cannot record a trace while replaying one")
	}
	return nil
}

// ErrDeadline is returned by Run when Config.Deadline passed before the
// simulation finished.
var ErrDeadline = errors.New("sim: wall-clock deadline exceeded")

// DefaultMemOps is the per-thread memory-op budget used by the experiments.
const DefaultMemOps = 6000

// LoopStats describes how the main loop covered the simulated timeline.
// It lives outside Mem/Cache because it measures the simulator, not the
// simulated machine: the two loop modes must agree on every model
// statistic while reporting loop counters of their own.
//
// Both loop modes report the same semantics, counted by the same
// sched.EventClock: EventsFired is the number of CPU cycles the loop
// landed on and actually simulated, CyclesSkipped the number of cycles
// proven no-ops and jumped over, and EventsFired + CyclesSkipped ==
// Result.CPUCycles always holds. The steplock reference loop lands on
// every cycle, so it reports EventsFired == CPUCycles and CyclesSkipped
// == 0. TestLoopStatsSemantics holds both modes to this contract.
type LoopStats struct {
	EventsFired   int64
	CyclesSkipped int64
	// Steplock records that the per-cycle reference loop produced the run.
	Steplock bool
}

// Result captures everything one run produces; the experiment drivers
// combine Results into the paper's figures.
type Result struct {
	System    SystemKind
	Scheme    string
	Benchmark string

	CPUCycles    int64
	DRAMCycles   int64
	Seconds      float64
	Instructions int64

	Mem   *memctrl.Stats
	Cache cache.Stats
	Loop  LoopStats

	DRAM energy.Breakdown
	CPUJ float64
	// RetryJ is the IO energy wasted on NACKed bursts (subset of DRAM.IO).
	RetryJ float64
}

// SystemJ returns the full-system energy (Figure 19's quantity).
func (r *Result) SystemJ() float64 { return r.DRAM.Total() + r.CPUJ }

// BusUtilization returns the data-bus busy fraction.
func (r *Result) BusUtilization() float64 { return r.Mem.BusUtilization() }

// memPort adapts the memory system (plus the benchmark's value model) to
// the cache hierarchy's port interface. Requests that hit controller
// backpressure are cached per line so retries (which the hierarchy issues
// every cycle) reuse the same object instead of rebuilding it.
type memPort struct {
	sys       *memctrl.System
	bench     *workload.Benchmark
	dramNow   int64
	writeSeq  uint64
	pendingRd map[int64]*memctrl.Request
	pendingWr map[int64]*memctrl.Request
	inflight  map[int64]*memctrl.Request // accepted reads, for Promote
	rec       *recorder                  // non-nil while recording a trace
}

// recorder captures boundary events for the trace layer (DESIGN.md §5.11).
// Only controller acceptances are recorded: a rejected request is retried
// by the hierarchy until accepted, and replay re-creates only the accept.
type recorder struct {
	events []trace.Event
}

// accept records an accepted request — priority as merged at acceptance,
// write data as carried by the request — and wraps its completion callback
// so the completion cycle lands in the same event. The wrap is
// behavior-neutral: the original callback (nil for writes) still runs.
func (r *recorder) accept(req *memctrl.Request, kind trace.Kind, now int64) {
	idx := len(r.events)
	r.events = append(r.events, trace.Event{
		Kind: kind, Clock: now, Line: req.Line, Stream: req.Stream,
		Demand: req.Demand, Data: req.Data,
	})
	orig := req.OnDone
	req.OnDone = func(done int64) {
		r.events[idx].DoneAt = done
		if orig != nil {
			orig(done)
		}
	}
}

// promote records a demand promotion of an in-flight read.
func (r *recorder) promote(line, now int64) {
	r.events = append(r.events, trace.Event{Kind: trace.Promote, Clock: now, Line: line})
}

func newMemPort(sys *memctrl.System, bench *workload.Benchmark) *memPort {
	return &memPort{
		sys: sys, bench: bench,
		pendingRd: make(map[int64]*memctrl.Request),
		pendingWr: make(map[int64]*memctrl.Request),
		inflight:  make(map[int64]*memctrl.Request),
	}
}

// ReadLine implements cache.MemPort.
func (p *memPort) ReadLine(line int64, demand bool, stream int, done func(int64)) bool {
	req := p.pendingRd[line]
	if req == nil {
		req = &memctrl.Request{Line: line, Demand: demand, Stream: stream}
		req.OnDone = func(int64) {
			delete(p.inflight, line)
			if done != nil {
				done(line)
			}
		}
	}
	req.Demand = req.Demand || demand
	if !p.sys.Enqueue(req, p.dramNow) {
		p.pendingRd[line] = req
		return false
	}
	delete(p.pendingRd, line)
	p.inflight[line] = req
	if p.rec != nil {
		p.rec.accept(req, trace.ReadAccept, p.dramNow)
	}
	return true
}

// Promote implements cache.MemPort: flip an in-flight (or still-pending)
// prefetch read to demand priority.
func (p *memPort) Promote(line int64) {
	if req := p.inflight[line]; req != nil {
		// Only a promotion that flips an accepted read is an event; a
		// pending (not yet accepted) read records its merged priority at
		// acceptance instead.
		if !req.Demand && p.rec != nil {
			p.rec.promote(line, p.dramNow)
		}
		req.Demand = true
	}
	if req := p.pendingRd[line]; req != nil {
		req.Demand = true
	}
}

// WriteLine implements cache.MemPort.
func (p *memPort) WriteLine(line int64, stream int) bool {
	req := p.pendingWr[line]
	if req == nil {
		p.writeSeq++
		req = &memctrl.Request{
			Line: line, Write: true, Stream: stream,
			Data: p.bench.StoreData(line, p.writeSeq),
		}
	}
	if !p.sys.Enqueue(req, p.dramNow) {
		p.pendingWr[line] = req
		return false
	}
	delete(p.pendingWr, line)
	if p.rec != nil {
		p.rec.accept(req, trace.WriteAccept, p.dramNow)
	}
	return true
}

// buildMemSystem constructs the controller-side half of the machine —
// scheme policy, reliability windows, phy decoration, controller
// configuration, value overlay — exactly as a full run uses it. Run and
// the replay driver share it so a replayed cell's backend is identical by
// construction to the backend a full simulation of that cell would build.
func buildMemSystem(cfg *Config, plat platform) (memctrl.Policy, *memctrl.System, error) {
	policy, newPhy, err := schemeFor(cfg.Scheme, plat, cfg.LookaheadX, cfg.Seed)
	if err != nil {
		return nil, nil, err
	}

	// DDR4 RAS features: start from the evaluated DDR4-3200 windows and keep
	// only what the run enables.
	var rel dram.Reliability
	if cfg.WriteCRC || cfg.CAParity {
		d4 := dram.DDR4Reliability()
		if cfg.WriteCRC {
			rel.WriteCRC, rel.CRCExtraBeats, rel.CRCAlertCycles = true, d4.CRCExtraBeats, d4.CRCAlertCycles
		}
		if cfg.CAParity {
			rel.CAParity, rel.CABits, rel.CAAlertCycles = true, d4.CABits, d4.CAAlertCycles
		}
	}

	// Decorate the phy factory with the link reliability state. NewSystem
	// calls the factory once per channel in order, so each channel gets its
	// own injector with a deterministic per-channel sub-stream derived from
	// the fault seed and the run seed.
	if cfg.Fault.Enabled() || rel.Enabled() {
		base := newPhy
		channel := 0
		newPhy = func() memctrl.Phy {
			link := memctrl.LinkConfig{
				WriteCRC: rel.WriteCRC,
				CRCBeats: rel.ExtraWriteBeats(),
				CABits:   rel.CommandBits(),
			}
			if cfg.Fault.Enabled() {
				seed := cfg.Fault.Seed ^ (cfg.Seed * 0x9e3779b97f4a7c15) ^ (uint64(channel+1) * 0xd1342543de82ef95)
				link.Inject = fault.MustNew(cfg.Fault.WithSeed(seed))
			}
			channel++
			phy := base()
			switch p := phy.(type) {
			case *memctrl.PODPhy:
				p.Link = link
			case *memctrl.TransitionPhy:
				p.Link = link
			case *memctrl.BIWirePhy:
				p.Link = link
			}
			return phy
		}
	}
	if cfg.Verify {
		base := newPhy
		newPhy = func() memctrl.Phy {
			switch phy := base().(type) {
			case *memctrl.PODPhy:
				phy.Verify = true
				return phy
			case *memctrl.TransitionPhy:
				phy.Verify = true
				return phy
			case *memctrl.BIWirePhy:
				phy.Verify = true
				return phy
			default:
				return phy
			}
		}
	}

	ctrlCfg := memctrl.DefaultConfig(plat.dram)
	ctrlCfg.Reliability = rel
	ctrlCfg.Retry = cfg.Retry
	if cfg.PowerDown {
		// tXP ~ 6ns and a ~40ns idle threshold, in DRAM cycles.
		xp := int(6.0/plat.dram.ClockNS) + 1
		ctrlCfg.PowerDown = memctrl.PowerDownConfig{Enable: true, IdleCycles: 64, XP: xp}
	}
	memSys, err := memctrl.NewSystem(memctrl.SystemConfig{
		Channels:   plat.channels,
		Controller: ctrlCfg,
		Policy:     policy,
		NewPhy:     newPhy,
		Mem:        memctrl.NewOverlayMemory(cfg.Benchmark.LineData),
	})
	if err != nil {
		return nil, nil, err
	}
	return policy, memSys, nil
}

// Run executes one configuration to completion.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.ReplayTrace != nil {
		return replayRun(cfg)
	}
	plat := platformFor(cfg.System)
	policy, memSys, err := buildMemSystem(&cfg, plat)
	if err != nil {
		return nil, err
	}

	memOps := cfg.MemOpsPerThread
	if memOps <= 0 {
		memOps = DefaultMemOps
	}
	maxCycles := cfg.MaxCPUCycles
	if maxCycles <= 0 {
		maxCycles = 400_000_000
	}

	port := newMemPort(memSys, cfg.Benchmark)
	if cfg.RecordTrace != nil {
		port.rec = &recorder{}
	}
	hier, err := cache.NewHierarchy(plat.cache, port)
	if err != nil {
		return nil, err
	}

	bench := cfg.Benchmark
	if plat.computeScale > 1 {
		bench = bench.WithComputeScale(plat.computeScale)
	}
	streams, err := bench.NewStreamsSeeded(plat.cpu.Threads(), memOps, cfg.Seed)
	if err != nil {
		return nil, err
	}
	proc, err := cpu.NewProcessor(plat.cpu, hier, streams)
	if err != nil {
		return nil, err
	}

	// Observability: attach the (possibly nil) obs layer to every domain.
	// Track registration order fixes the Perfetto display order: the event
	// core first, then each channel's command and bus timelines.
	var evTrack *obs.Track
	if cfg.Obs.Enabled() {
		if cfg.Obs.Trace != nil {
			// CPU cycle length in wall time: the CPU clock runs at 2x the
			// DRAM clock on both platforms.
			cfg.Obs.Trace.SetTimebase(plat.dram.ClockNS / 2)
		}
		evTrack = cfg.Obs.NewTrack("event core", 1)
		memSys.SetObs(cfg.Obs)
		hier.SetObs(cfg.Obs)
		proc.SetObs(cfg.Obs)
		if p, ok := policy.(interface{ SetObs(*obs.Obs) }); ok {
			p.SetObs(cfg.Obs)
		}
	}

	// Main loop. The CPU clock runs at 2x the DRAM clock on both platforms
	// (3.2GHz/1.6GHz and 1.6GHz/0.8GHz); the DRAM domain ticks on even CPU
	// cycles. Two interchangeable loops cover the timeline:
	//
	//   - the steplock reference loop ticks every CPU cycle;
	//   - the event loop advances to the minimum of the domains' NextWake
	//     bounds, bulk-accounts the skipped (provably no-op) cycles, and
	//     fires the landed cycle exactly as the reference loop would.
	//
	// Both run the same per-cycle code on every cycle that does anything,
	// so they produce byte-identical Results (the differential tests in
	// steplock_test.go hold them to that).
	var cpuNow int64
	var loop LoopStats
	// Both loops report LoopStats through the same sched.EventClock so the
	// counters carry identical semantics (see LoopStats): the steplock
	// loop lands every cycle, the event loop only the woken ones.
	ev := sched.NewEventClock()

	// gate runs at the top of the loop body in both modes, just before the
	// landed cycle fires: every 4096 landed cycles it polls the wall-clock
	// deadline.
	var gateTick int64
	gate := func() error {
		if !cfg.Deadline.IsZero() {
			gateTick++
			if gateTick&4095 == 0 && time.Now().After(cfg.Deadline) {
				return ErrDeadline
			}
		}
		return nil
	}

	if cfg.Steplock {
		for {
			if err := gate(); err != nil {
				return nil, err
			}
			ev.Advance(cpuNow)
			if cpuNow%2 == 0 {
				port.dramNow = cpuNow / 2
				memSys.Tick(port.dramNow)
			}
			hier.Tick()
			proc.Tick(cpuNow)
			if proc.Done() && !hier.Pending() && !memSys.Pending() {
				break
			}
			cpuNow++
			if cpuNow > maxCycles {
				return nil, fmt.Errorf("sim: %s/%s/%s exceeded %d CPU cycles",
					cfg.System, cfg.Scheme, cfg.Benchmark.Name, maxCycles)
			}
		}
		loop = LoopStats{EventsFired: ev.Events, CyclesSkipped: ev.Skipped, Steplock: true}
	} else {
		clock := sched.Clock{CPUPerDRAM: 2}
		for {
			if err := gate(); err != nil {
				return nil, err
			}
			ev.Advance(cpuNow)
			evTrack.Instant("fire", cpuNow, obs.Args{})
			// Stall accounting for the skipped window first: the fills the
			// DRAM tick delivers below unblock threads, and the reference
			// loop had them blocked for the whole window.
			proc.SkipTo(cpuNow)
			d := clock.DRAMCycle(cpuNow)
			if clock.IsDRAMEdge(cpuNow) {
				memSys.SkipUntil(d - 1)
				port.dramNow = d
				memSys.Tick(d)
			} else {
				// A landed odd cycle: the reference loop's last DRAM tick
				// (at cpuNow-1) was a no-op or already fired; account any
				// still-unaccounted DRAM cycles without ticking.
				memSys.SkipUntil(d)
				port.dramNow = d
			}
			hier.Tick()
			proc.Tick(cpuNow)
			if proc.Done() && !hier.Pending() && !memSys.Pending() {
				break
			}
			next := sched.MinWake(
				proc.NextWake(cpuNow),
				hier.NextWake(cpuNow),
				clock.CPUCycle(memSys.NextWake()),
			)
			if next <= cpuNow {
				next = cpuNow + 1
			}
			if next > cpuNow+1 {
				evTrack.Slice("skip", cpuNow+1, next, obs.Args{})
			}
			cpuNow = next
			if cpuNow > maxCycles {
				return nil, fmt.Errorf("sim: %s/%s/%s exceeded %d CPU cycles",
					cfg.System, cfg.Scheme, cfg.Benchmark.Name, maxCycles)
			}
		}
		loop = LoopStats{EventsFired: ev.Events, CyclesSkipped: ev.Skipped}
	}

	dramCycles := cpuNow/2 + 1
	seconds := float64(dramCycles) * plat.dram.ClockNS * 1e-9
	memSys.FlushObs() // close the trailing idle-window run
	stats := memSys.Stats()

	breakdown, err := energy.DRAMEnergy(plat.power, plat.dram, plat.channels, stats, dramCycles)
	if err != nil {
		return nil, err
	}
	cpuJ := energy.CPUEnergy(plat.cpuPower, seconds, proc.Retired)
	retryJ := energy.RetryEnergyJ(plat.power, stats)
	if cfg.Obs.Enabled() {
		o := cfg.Obs
		o.Counter("sim_runs_total").Inc()
		o.Counter("sim_cpu_cycles_total").Add(cpuNow + 1)
		o.Counter("sim_dram_cycles_total").Add(dramCycles)
		o.Counter("loop_events_fired_total").Add(ev.Events)
		o.Counter("loop_cycles_skipped_total").Add(ev.Skipped)
		energy.RecordMetrics(o, breakdown, cpuJ, retryJ)
	}
	cacheStats := hier.Stats()
	if cfg.RecordTrace != nil {
		wbBackpressure, fillRetries, wbQueuePeak := hier.BoundaryStats()
		cfg.RecordTrace(&trace.Trace{
			CPUCycles:      cpuNow + 1,
			DRAMCycles:     dramCycles,
			Instructions:   proc.Retired,
			Cache:          cacheStats,
			EventsFired:    loop.EventsFired,
			CyclesSkipped:  loop.CyclesSkipped,
			Steplock:       loop.Steplock,
			ThreadBlocks:   proc.ThreadBlocks(),
			WBBackpressure: wbBackpressure,
			FillRetries:    fillRetries,
			WBQueuePeak:    wbQueuePeak,
			Events:         port.rec.events,
		})
	}
	return &Result{
		System:       cfg.System,
		Scheme:       cfg.Scheme,
		Benchmark:    cfg.Benchmark.Name,
		CPUCycles:    cpuNow + 1,
		DRAMCycles:   dramCycles,
		Seconds:      seconds,
		Instructions: proc.Retired,
		Mem:          stats,
		Cache:        cacheStats,
		Loop:         loop,
		DRAM:         breakdown,
		CPUJ:         cpuJ,
		RetryJ:       retryJ,
	}, nil
}
