// Command perfbench is the repository's benchmark. It runs one named
// workload at a given seed for a fixed time, checks every output it
// produces, and prints its metrics as one JSON object on the last line of
// standard output: the end-to-end metrics with --trace 0, the per-layer
// metrics with --trace 1. Build and run it through run.sh, from the root
// of the repository:
//
//	bash perfbench/run.sh --workload sweep-fresh --seed 0 --seconds 20 --trace 0
//
// README.md in this directory explains the workloads, the metrics, and how
// to read a traced run.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"mil/internal/profiling"
)

// outDir holds everything a run writes (span traces, CPU profiles, the
// reference sweep's journal), relative to the repository root.
const outDir = ".bench_build/perfbench"

// Child processes time the set-up, setupProbesPerIter after each timed
// iteration and at least setupProbes in all, so they sample the whole timed
// phase; setup_s is their median.
const (
	setupProbes        = 21
	setupProbesPerIter = 2
)

// minIters is the fewest iterations a timed or traced phase runs, however
// short its time budget.
const minIters = 3

// tracedBudget is the least time the traced phase runs (more iterations
// give the CPU profile more samples).
const tracedBudget = 5 * time.Second

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	probe    bool
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var tr int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", 0, "workload seed (0 = the golden configuration)")
	fs.IntVar(&o.seconds, "seconds", 20, "length of the timed phase in seconds")
	fs.IntVar(&tr, "trace", 0, "1 = also run the traced phase and print the per-layer metrics")
	fs.BoolVar(&o.probe, "probe-setup", false, "internal: do the set-up, print ready and exit")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if tr != 0 && tr != 1 {
		return o, fmt.Errorf("--trace %d: want 0 or 1", tr)
	}
	o.trace = tr == 1
	if o.seconds < 1 {
		return o, fmt.Errorf("--seconds %d: want at least 1", o.seconds)
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("--workload %q: want one of %s", o.workload, strings.Join(workloadNames(), ", "))
	}
	return o, nil
}

func main() {
	// One P: on a host of two shared vCPUs, a second P let the collector and
	// the simulation trade cores and caches, which took 14% longer and
	// doubled the iteration-to-iteration spread of a sweep (CV 0.105 against
	// 0.052).
	runtime.GOMAXPROCS(1)
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if o.probe {
		if _, err := workloads[o.workload](o); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println("ready")
		return
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// bench is one workload.
type bench interface {
	// reference runs, outside any timed window, the output every later
	// iteration is checked against, and checks it where a fixed reference
	// exists (the committed goldens, the steplock loop).
	reference(t *tally) error
	// iterate runs and checks one iteration. sp is nil on timed iterations
	// and records spans on traced ones.
	iterate(sp *spanLog) (iteration, error)
	// layers runs the per-layer probes of a traced run and adds their
	// metrics; its are the timed iterations.
	layers(m metricSet, its []iteration, tr tracedRun, t *tally) error
}

// workloads maps each workload name to its set-up: everything the first
// timed operation needs, and what a set-up probe times.
var workloads = map[string]func(options) (bench, error){
	"sweep-fresh":  func(o options) (bench, error) { return newSweep(o, false) },
	"sweep-cached": func(o options) (bench, error) { return newSweep(o, true) },
	"cell-long":    newCell,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// tally counts checked operations.
type tally struct{ attempted, failed int }

func (t *tally) add(ops, failed int) {
	t.attempted += ops
	t.failed += failed
}

// workers is the Runner pool width: one, to match the one P. With two, the
// trace store's prefetch goroutines race for the pool, so how many cluster
// trials a sweep makes changes from run to run.
func workers() int { return 1 }

func run(o options) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	b, err := workloads[o.workload](o)
	if err != nil {
		return err
	}
	var t tally
	if err := b.reference(&t); err != nil {
		return err
	}
	var setups []float64
	probe := func(n int) error {
		if o.trace {
			return nil
		}
		for i := 0; i < n; i++ {
			s, err := timeSetup(o)
			if err != nil {
				return err
			}
			setups = append(setups, s)
		}
		return nil
	}
	its, err := loop(b, time.Duration(o.seconds)*time.Second, nil, func() error { return probe(setupProbesPerIter) })
	if err != nil {
		return err
	}
	if err := probe(setupProbes - len(setups)); err != nil {
		return err
	}
	for _, it := range its {
		t.add(it.ops, it.failed)
	}

	fmt.Printf("timed iterations: %d; wall_s each: %.4f\n", len(its), field(its, wallOf))
	m := metricSet{}
	env := environment(o)
	if !o.trace {
		endToEnd(m, its, median(setups))
	} else {
		tr, err := tracedPhase(b, o)
		if err != nil {
			return err
		}
		for _, it := range tr.its {
			t.add(it.ops, it.failed)
		}
		if err := b.layers(m, its, tr, &t); err != nil {
			return err
		}
		runtimeLayer(m, its)
		wall, twall := median(field(its, wallOf)), median(field(tr.its, wallOf))
		m.add("tracing.overhead_s", twall-wall, "s")
		m.add("tracing.overhead_frac", (twall-wall)/wall, "frac")
		path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
		if err := tr.sp.write(path, env); err != nil {
			return err
		}
		fmt.Printf("spans: %s (Chrome trace-event JSON; open in ui.perfetto.dev)\n", path)
		fmt.Printf("cpu profile: %s (%d samples)\n", tr.prof.path, tr.prof.samples)
	}
	return report(os.Stdout, env, m, t)
}

// loop runs iterations until budget has passed and at least minIters ran.
// Each starts from a collected heap, as in a fresh process, rather than
// paying for the garbage of the one before. after, if not nil, runs after
// each iteration, inside the budget but outside every iteration's timing.
func loop(b bench, budget time.Duration, sp *spanLog, after func() error) ([]iteration, error) {
	start := time.Now()
	var its []iteration
	for len(its) < minIters || time.Since(start) < budget {
		runtime.GC()
		it, err := b.iterate(sp)
		if err != nil {
			return nil, err
		}
		its = append(its, it)
		if after != nil {
			if err := after(); err != nil {
				return nil, err
			}
		}
	}
	return its, nil
}

// tracedRun is the traced phase: its iterations, their CPU profile, and
// the span log the per-layer probes add to.
type tracedRun struct {
	its  []iteration
	prof *profile
	sp   *spanLog
}

// tracedPhase runs the traced iterations under the CPU profiler.
func tracedPhase(b bench, o options) (tracedRun, error) {
	tr := tracedRun{sp: newSpanLog()}
	path := filepath.Join(outDir, fmt.Sprintf("cpu-%s-seed%d.pprof", o.workload, o.seed))
	stop, err := profiling.Start(path, "")
	if err != nil {
		return tr, err
	}
	tr.its, err = loop(b, tracedBudget, tr.sp, nil)
	if serr := stop(); err == nil {
		err = serr
	}
	if err != nil {
		return tr, err
	}
	tr.prof, err = readProfile(path)
	return tr, err
}

// timeSetup runs one set-up probe: it starts this binary in probe mode and
// times process start until the probe reports its set-up done.
func timeSetup(o options) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, "--probe-setup", "--workload", o.workload, "--seed", fmt.Sprint(o.seed))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, rerr := bufio.NewReader(out).ReadString('\n')
	elapsed := time.Since(start)
	if err := cmd.Wait(); err != nil {
		return 0, fmt.Errorf("set-up probe: %w", err)
	}
	if rerr != nil || line != "ready\n" {
		return 0, fmt.Errorf("set-up probe printed %q (%v)", line, rerr)
	}
	return elapsed.Seconds(), nil
}

// endToEnd adds the end-to-end metrics: the time metrics over the run's
// quiet iterations, set-up and memory over the whole run.
func endToEnd(m metricSet, its []iteration, setup float64) {
	q := quiet(its)
	m.add("wall_s", median(field(q, wallOf)), "s")
	m.add("setup_s", setup, "s")
	m.add("cpu_s", median(field(q, func(it iteration) float64 { return it.cpu })), "s")
	m.add("sim_mcps", median(field(q, func(it iteration) float64 {
		return float64(it.simCycles) / it.wall / 1e6
	})), "Mcycle/s")
	p50, p90 := cellQuantiles(q)
	m.add("cell_p50_ms", p50, "ms")
	m.add("cell_p90_ms", p90, "ms")
	m.add("peak_rss_mb", peakRSSMB(), "MB")
}

// quiet returns the fastest quarter of the iterations by wall time, at
// least two. The host's neighbours only ever add time, in spells of
// seconds that cover a different share of each run, so a median over every
// iteration moves with the share a spell happened to cover; the quiet
// iterations measure the program.
func quiet(its []iteration) []iteration {
	s := append([]iteration(nil), its...)
	sort.SliceStable(s, func(i, j int) bool { return s[i].wall < s[j].wall })
	return s[:min(len(s), max(2, len(s)/4))]
}

// cellQuantiles returns the per-cell host latency p50 and p90. A sweep has
// enough cells for per-iteration quantiles of its whole-millisecond
// Progress readings, of which it takes the median over the iterations; a
// single-cell workload takes its quantiles over the iterations.
func cellQuantiles(its []iteration) (p50, p90 float64) {
	if len(its[0].cellMS) >= 20 {
		return median(field(its, func(it iteration) float64 { return binnedQuantile(it.cellMS, 0.5) })),
			median(field(its, func(it iteration) float64 { return binnedQuantile(it.cellMS, 0.9) }))
	}
	var all []float64
	for _, it := range its {
		all = append(all, it.cellMS...)
	}
	return quantile(all, 0.5), quantile(all, 0.9)
}

// runtimeLayer adds the Go runtime's allocation and GC figures, per timed
// iteration.
func runtimeLayer(m metricSet, its []iteration) {
	m.add("go.alloc_mb", median(field(its, func(it iteration) float64 { return it.rt.allocMB })), "MB")
	m.add("go.mallocs_m", median(field(its, func(it iteration) float64 { return it.rt.mallocsM })), "M")
	m.add("go.gc_cycles", median(field(its, func(it iteration) float64 { return it.rt.gcCycles })), "count")
	m.add("go.gc_cpu_frac", median(field(its, func(it iteration) float64 { return it.rt.gcCPUFrac })), "frac")
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) add(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		fmt.Fprintf(os.Stderr, "perfbench: %s is %v; reported as 0\n", name, v)
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// env stamps a result with where it was measured.
type env struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	SourceSHA  string `json:"source_sha256"`
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
}

func environment(o options) env {
	e := env{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: workers(),
		GoVersion: runtime.Version(), Commit: "unknown", SourceSHA: sourceDigest(),
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
			if s.Key == "vcs.modified" && s.Value == "true" {
				e.Commit += "+dirty"
			}
		}
	}
	return e
}

// report prints the environment, every metric by name with its unit, the
// failure ratio, and last the JSON result line.
func report(w io.Writer, e env, m metricSet, t tally) error {
	stamp, err := json.Marshal(e)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "env: %s\n", stamp)
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-34s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
	if t.attempted == 0 {
		return errors.New("no operation was attempted")
	}
	fmt.Fprintf(w, "%-34s %14.6g (%d of %d ops failed)\n", "fail_ratio",
		float64(t.failed)/float64(t.attempted), t.failed, t.attempted)
	out, err := json.Marshal(struct {
		Correct   bool      `json:"correct"`
		Attempted int       `json:"attempted"`
		Failed    int       `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{t.failed == 0, t.attempted, t.failed, m})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}
