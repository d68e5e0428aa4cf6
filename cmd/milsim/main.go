// Command milsim runs one simulation configuration and prints a detailed
// report: performance, bus statistics, zero counts, and the DRAM/system
// energy breakdown.
//
// Usage:
//
//	milsim [-system server|mobile] [-scheme mil] [-bench GUPS] [-ops 6000] [-x 8] [-verify] [-j N]
//
// Scheme names come from the scheme registry (internal/scheme): the
// baselines (baseline/bi/raw), the fixed codecs (milc/cafo2/cafo4/lwc3),
// the MiL family (mil/mil3/mil-nowropt/mil-x4/mil-degrade), the fixed
// burst lengths bl10-bl16, and the adaptive mil-bandit. -list-schemes
// prints the annotated table (aliases, timing class, platforms).
// With -bench all the suite runs on a worker pool -j wide (default
// GOMAXPROCS); reports print in suite order regardless of -j, and -progress
// streams per-run completion lines on stderr. -steplock selects the
// per-cycle reference loop; results are byte-identical to the default
// event-driven core, just slower (it exists for differential debugging).
//
// Observability (DESIGN.md §5.9): -trace out.json records the run's DRAM
// commands, data-bus busy/idle spans, and event-core fire/skip spans as
// Chrome trace-event JSON — open it at https://ui.perfetto.dev (or
// chrome://tracing). Tracing is single-run only, so -trace rejects
// -bench all. -metrics out.csv writes the metrics-registry snapshot
// (counters/gauges/histograms, including the bus idle-window histogram);
// it composes with -bench all and any -j, and the snapshot is
// byte-identical at any worker count.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"mil/internal/fault"
	"mil/internal/memctrl"
	"mil/internal/obs"
	"mil/internal/profiling"
	schemereg "mil/internal/scheme"
	"mil/internal/sim"
	"mil/internal/workload"
)

func main() {
	var (
		system = flag.String("system", "server", "platform: server (DDR4) or mobile (LPDDR3)")
		scheme = flag.String("scheme", "mil", "coding scheme: "+strings.Join(sim.SchemeNames(), ", "))
		bench  = flag.String("bench", "GUPS", "benchmark: "+strings.Join(workload.Names(), ", ")+", or 'all'")
		ops    = flag.Int64("ops", sim.DefaultMemOps, "memory operations per hardware thread")
		x      = flag.Int("x", 0, "MiL look-ahead distance override (0 = default)")
		verify = flag.Bool("verify", false, "decode and check every burst")
		pd     = flag.Bool("powerdown", false, "enable the fast power-down extension")

		trace   = flag.String("trace", "", "write a Perfetto (Chrome trace-event) JSON trace to this file (single benchmark only)")
		metrics = flag.String("metrics", "", "write the observability metrics snapshot (CSV) to this file")

		ber      = flag.Float64("ber", 0, "link bit-error rate per driven bit-time (0 = clean link)")
		bursterr = flag.Float64("bursterr", 0, "per-transfer probability of a correlated error burst")
		burstlen = flag.Int("burstlen", 0, "correlated error run length in beats (0 = default 4)")
		stuckpin = flag.Int("stuckpin", -1, "bus pin stuck at -stuckval (-1 = none)")
		stuckval = flag.Bool("stuckval", false, "level the stuck pin is read at")
		writecrc = flag.Bool("writecrc", false, "enable DDR4 write CRC with NACK-and-replay (server only)")
		caparity = flag.Bool("caparity", false, "enable DDR4 command/address parity (server only)")
		retries  = flag.Int("retries", 0, "replay budget per request (0 = default 8)")
		seed     = flag.Uint64("seed", 0, "run seed for streams and fault injection (0 = legacy streams)")
		steplock = flag.Bool("steplock", false, "use the per-cycle reference loop instead of the event core")
		workers  = flag.Int("j", 0, "runs in flight for -bench all (0 = GOMAXPROCS)")
		progress = flag.Bool("progress", false, "stream per-run completion lines on stderr")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")

		listSchemes = flag.Bool("list-schemes", false, "print the scheme registry table and exit")
	)
	flag.Parse()

	if *listSchemes {
		schemereg.WriteTable(os.Stdout)
		return
	}

	// Flag validation, before any side effects (profiles, files): these
	// invocations can never succeed, so fail them up front with a
	// usage-style exit code.
	if err := checkFlags(*bench, *trace, *workers); err != nil {
		fmt.Fprintln(os.Stderr, "milsim:", err)
		os.Exit(2)
	}

	stopProf, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "milsim:", err)
		os.Exit(1)
	}
	// Finish the profiles on every exit path below (os.Exit skips defers).
	exit := func(code int) {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "milsim:", err)
		}
		os.Exit(code)
	}

	fc := fault.Config{BER: *ber, BurstRate: *bursterr, BurstLen: *burstlen}
	if *stuckpin >= 0 {
		fc.StuckPins = []int{*stuckpin}
		fc.StuckVal = *stuckval
	}

	// Observability sinks. The metrics registry is shared by every run (its
	// updates commute, so the snapshot is -j independent); the trace
	// recorder holds one run's timeline and therefore rejects -bench all.
	var reg *obs.Registry
	var rec *obs.Trace
	if *metrics != "" {
		reg = obs.NewRegistry()
	}
	if *trace != "" {
		rec = obs.NewTrace(0)
	}
	var obsLayer *obs.Obs
	if reg != nil || rec != nil {
		obsLayer = &obs.Obs{Metrics: reg, Trace: rec}
	}

	kind := sim.Server
	switch *system {
	case "server":
	case "mobile":
		kind = sim.Mobile
	default:
		fmt.Fprintf(os.Stderr, "milsim: unknown system %q\n", *system)
		exit(2)
	}

	benches := []string{*bench}
	if *bench == "all" {
		benches = workload.Names()
	}

	j := *workers
	if j == 0 {
		j = runtime.GOMAXPROCS(0)
	}

	// Run the requested benchmarks on a bounded pool. sim.Run is re-entrant
	// (see internal/sim), so parallel runs share nothing; each report is
	// buffered and printed in suite order so -j never reorders output.
	type outcome struct {
		res *sim.Result
		err error
	}
	results := make([]outcome, len(benches))
	sem := make(chan struct{}, j)
	var wg sync.WaitGroup
	var progressMu sync.Mutex
	for i, name := range benches {
		b, err := workload.ByName(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "milsim:", err)
			exit(2)
		}
		i, name, b := i, name, b
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			start := time.Now()
			cfg := sim.Config{
				System: kind, Scheme: *scheme, Benchmark: b,
				MemOpsPerThread: *ops, LookaheadX: *x, Verify: *verify,
				PowerDown: *pd, Obs: obsLayer,
				Fault: fc, WriteCRC: *writecrc, CAParity: *caparity,
				Retry:    memctrl.RetryConfig{MaxRetries: *retries},
				Seed:     *seed,
				Steplock: *steplock,
			}
			res, err := sim.Run(cfg)
			results[i] = outcome{res, err}
			if *progress {
				progressMu.Lock()
				fmt.Fprintf(os.Stderr, "milsim: %s/%s/%s done (%.0fms)\n",
					kind, *scheme, name, float64(time.Since(start).Milliseconds()))
				progressMu.Unlock()
			}
		}()
	}
	wg.Wait()

	for _, o := range results {
		if o.err != nil {
			fmt.Fprintln(os.Stderr, "milsim:", o.err)
			if errors.Is(o.err, schemereg.ErrUnknown) {
				fmt.Fprintln(os.Stderr, "\nthe registry knows:")
				schemereg.WriteTable(os.Stderr)
				exit(2)
			}
			exit(1)
		}
		report(o.res)
	}

	if rec != nil {
		if err := writeFileWith(*trace, rec.WriteJSON); err != nil {
			fmt.Fprintln(os.Stderr, "milsim:", err)
			exit(1)
		}
		if n := rec.Dropped(); n > 0 {
			fmt.Fprintf(os.Stderr, "milsim: trace buffer filled; %d events dropped\n", n)
		}
	}
	if reg != nil {
		if err := writeFileWith(*metrics, reg.WriteCSV); err != nil {
			fmt.Fprintln(os.Stderr, "milsim:", err)
			exit(1)
		}
	}
	if err := stopProf(); err != nil {
		fmt.Fprintln(os.Stderr, "milsim:", err)
		os.Exit(1)
	}
}

// checkFlags rejects flag values and combinations that can never run.
func checkFlags(bench, trace string, workers int) error {
	if bench == "all" && trace != "" {
		return fmt.Errorf("-trace records a single run's timeline; pick one benchmark instead of -bench all")
	}
	if workers < 0 {
		return fmt.Errorf("-j %d: the worker count cannot be negative (0 = GOMAXPROCS)", workers)
	}
	return nil
}

// writeFileWith streams write(w) into path through a buffered writer.
func writeFileWith(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := write(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func report(r *sim.Result) {
	m := r.Mem
	fmt.Printf("== %s / %s / %s ==\n", r.System, r.Benchmark, r.Scheme)
	fmt.Printf("  cycles: cpu=%d dram=%d (%.3f ms)\n", r.CPUCycles, r.DRAMCycles, r.Seconds*1e3)
	fmt.Printf("  instructions: %d (IPC %.2f)\n", r.Instructions, float64(r.Instructions)/float64(r.CPUCycles))
	fmt.Printf("  mem: reads=%d writes=%d acts=%d refs=%d fwd=%d\n", m.Reads, m.Writes, m.Activates, m.Refreshes, m.Forwards)
	fmt.Printf("  bus: util=%.1f%% idle-pending=%.1f%% idle-empty=%.1f%% back-to-back=%.1f%%\n",
		100*m.BusUtilization(),
		100*float64(m.IdlePendingCycles)/float64(m.Ticks),
		100*float64(m.IdleEmptyCycles)/float64(m.Ticks),
		100*float64(m.BackToBack)/float64(max64(m.GapPairs, 1)))
	fmt.Printf("  zeros: %d (%.2f per burst) cost-units=%d\n", m.Zeros,
		float64(m.Zeros)/float64(max64(m.ColumnCommands(), 1)), m.CostUnits)
	if len(m.CodecBursts) > 1 {
		var names []string
		for k := range m.CodecBursts {
			names = append(names, k)
		}
		sort.Strings(names)
		fmt.Printf("  codecs:")
		for _, k := range names {
			fmt.Printf(" %s=%.1f%%", k, 100*float64(m.CodecBursts[k])/float64(m.ColumnCommands()))
		}
		fmt.Println()
	}
	// Reliability section, only when the link actually saw trouble (on a
	// clean run the whole block is absent and the report matches the seed).
	if m.BitErrors > 0 || m.Failures() > 0 || m.CRCBeats > 0 {
		fmt.Printf("  link: bit-errors=%d silent=%d crc-alerts=%d ca-alerts=%d decode-fails=%d\n",
			m.BitErrors, m.SilentErrors, m.WriteCRCAlerts, m.CAParityAlerts, m.ReadDecodeFailures)
		fmt.Printf("  retry: writes=%d reads=%d exhausted=%d storms=%d wasted-beats=%d retry-energy=%.3g J\n",
			m.WriteRetries, m.ReadRetries, m.RetriesExhausted, m.RetryStorms, m.RetryBeats, r.RetryJ)
		if m.CRCBeats > 0 {
			fmt.Printf("  write-crc: extra-beats=%d (%.1f%% of data beats)\n",
				m.CRCBeats, 100*float64(m.CRCBeats)/float64(max64(m.BurstBeats-m.CRCBeats, 1)))
		}
	}
	d := r.DRAM
	fmt.Printf("  dram energy: total=%.3g J  background=%.1f%% act=%.1f%% rdwr=%.1f%% ref=%.1f%% io=%.1f%% codec=%.1f%%\n",
		d.Total(), 100*d.Background/d.Total(), 100*d.ActPre/d.Total(), 100*d.RdWr/d.Total(),
		100*d.Refresh/d.Total(), 100*d.IO/d.Total(), 100*d.Codec/d.Total())
	fmt.Printf("  system energy: %.3g J (dram %.1f%%)\n", r.SystemJ(), 100*d.Total()/r.SystemJ())
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
