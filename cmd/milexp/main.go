// Command milexp regenerates the paper's tables and figures and writes a
// markdown report.
//
// Usage:
//
//	milexp [-ops 6000] [-j N] [-out EXPERIMENTS.md] [-only "Figure 16"] [-q]
//
// Without -only, every experiment runs (a few hundred simulations). With
// -only, experiments whose ID contains the given substring run. Results
// within one invocation are shared across figures, and fresh simulations
// execute on a worker pool -j wide (default GOMAXPROCS). The report is
// byte-identical for every -j: scheduling never leaks into the tables.
//
// -stats file writes the sweep's aggregated observability metrics
// snapshot (internal/obs CSV: counters, gauges, and the bus idle-window
// histogram, summed over every fresh simulation) to the file, truncating
// any previous content. The snapshot is byte-identical for every -j too.
//
// Long sweeps are crash-safe with -resume file: every completed cell is
// appended to the JSONL journal as it settles, and rerunning the same
// command after a crash (or Ctrl-C) replays the journal, skips the
// finished cells, and simulates only the remainder. The journal keys
// embed the full run configuration, so a journal written under different
// flags never matches (and a torn final record from a crash is detected
// and dropped). -cell-timeout bounds any one simulation's wall-clock
// time, with capped-backoff retries, so a wedged cell fails instead of
// wedging the sweep. Artifacts (-out, -stats) are written atomically via
// a temp file and rename: a crash mid-write never leaves a half-report.
//
// Negative -ops, -j or -cell-timeout values are rejected with exit 2;
// zero selects each flag's default, and the report header states the
// budget that ran.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mil/internal/experiments"
	"mil/internal/obs"
	"mil/internal/scheme"
	"mil/internal/sim"
)

func main() {
	var (
		ops      = flag.Int64("ops", sim.DefaultMemOps, "memory operations per hardware thread")
		workers  = flag.Int("j", 0, "max simulations in flight (0 = GOMAXPROCS)")
		out      = flag.String("out", "", "write the report to this file (default stdout)")
		only     = flag.String("only", "", "run only experiments whose ID contains this substring")
		progress = flag.Bool("progress", true, "stream per-run progress and timing on stderr")
		quiet    = flag.Bool("q", false, "shortcut for -progress=false")
		seed     = flag.Uint64("seed", 0, "base stream seed (0 = legacy benchmark-derived streams)")
		stats    = flag.String("stats", "", "write the aggregated observability metrics snapshot (CSV) to this file (truncated, not appended)")
		resume   = flag.String("resume", "", "journal completed cells to this file and skip them when rerun (crash-safe sweeps)")
		timeout  = flag.Duration("cell-timeout", 0, "wall-clock budget per simulation, retried with backoff (0 = unbounded)")

		listSchemes = flag.Bool("list-schemes", false, "print the scheme registry table and exit")
	)
	flag.Parse()

	if *listSchemes {
		scheme.WriteTable(os.Stdout)
		return
	}

	if err := checkFlags(*ops, *workers, *timeout); err != nil {
		fmt.Fprintln(os.Stderr, "milexp:", err)
		os.Exit(2)
	}

	r := experiments.NewRunner(*ops)
	r.Workers = *workers
	r.BaseSeed = *seed
	r.CellTimeout = *timeout
	if *stats != "" {
		r.Metrics = obs.NewRegistry()
	}
	if *progress && !*quiet {
		r.Progress = os.Stderr
	}
	if *resume != "" {
		replayed, err := r.OpenJournal(*resume)
		if err != nil {
			fmt.Fprintln(os.Stderr, "milexp:", err)
			os.Exit(1)
		}
		defer r.CloseJournal()
		if replayed > 0 {
			fmt.Fprintf(os.Stderr, "milexp: resumed %d completed cells from %s\n", replayed, *resume)
		}
	}

	start := time.Now()
	tables, err := r.Tables(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "milexp:", err)
		if errors.Is(err, scheme.ErrUnknown) {
			fmt.Fprintln(os.Stderr, "\nthe registry knows:")
			scheme.WriteTable(os.Stderr)
			os.Exit(2)
		}
		os.Exit(1)
	}

	var sb strings.Builder
	sb.WriteString("# MiL reproduction — regenerated tables and figures\n\n")
	fmt.Fprintf(&sb, "Per-thread memory-op budget: %d. Every number is produced by the\n", r.MemOps)
	sb.WriteString("simulator in this repository; see EXPERIMENTS.md for the archived run\n")
	sb.WriteString("and the paper-vs-measured commentary.\n\n")
	for _, t := range tables {
		sb.WriteString(t.String())
		sb.WriteString("\n")
	}

	if r.Metrics != nil {
		var csv strings.Builder
		if err := r.Metrics.WriteCSV(&csv); err != nil {
			fmt.Fprintln(os.Stderr, "milexp:", err)
			os.Exit(1)
		}
		if err := writeFileAtomic(*stats, []byte(csv.String())); err != nil {
			fmt.Fprintln(os.Stderr, "milexp:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "milexp: wrote %s\n", *stats)
	}

	if r.Progress != nil {
		runs, simTime := r.Stats()
		fmt.Fprintf(os.Stderr, "milexp: %d simulations, %.1fs simulated serially, %.1fs wall\n",
			runs, simTime.Seconds(), time.Since(start).Seconds())
	}

	if *out == "" {
		fmt.Print(sb.String())
		return
	}
	if err := writeFileAtomic(*out, []byte(sb.String())); err != nil {
		fmt.Fprintln(os.Stderr, "milexp:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "milexp: wrote %s\n", *out)
}

// checkFlags rejects numeric flags that cannot describe a sweep. Zero
// keeps each flag's default.
func checkFlags(ops int64, workers int, timeout time.Duration) error {
	switch {
	case ops < 0:
		return fmt.Errorf("-ops %d: the per-thread memory-op budget cannot be negative (0 = default %d)", ops, sim.DefaultMemOps)
	case workers < 0:
		return fmt.Errorf("-j %d: the worker count cannot be negative (0 = GOMAXPROCS)", workers)
	case timeout < 0:
		return fmt.Errorf("-cell-timeout %v: the per-cell budget cannot be negative (0 = unbounded)", timeout)
	}
	return nil
}

// writeFileAtomic writes data to path via a temp file in the same
// directory and a rename, so readers (and crashes) never observe a
// partial artifact.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
