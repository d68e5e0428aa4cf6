// Package experiments regenerates every table and figure of the paper's
// evaluation (and the motivating Figures 1-7) from the simulator. Each
// FigureN/TableN method returns a rendered table; cmd/milexp assembles them
// into EXPERIMENTS.md.
//
// The whole evaluation is one cross product of {system x scheme x benchmark
// x look-ahead x extension knobs}, and figures share most of its cells (16
// through 19 and 22 all come from the same sweep). The Runner is therefore a
// sweep engine: every cell is cached per full configuration, concurrent
// requests for the same cell share one execution (singleflight), and fresh
// cells run on a bounded worker pool. Generators prefetch their cross
// product up front, so the serial row-assembly loops that follow find every
// cell warm or in flight. Results are deterministic regardless of scheduling:
// each cell's configuration (including its stream seed) is a pure function
// of the cell's key, so -j 1 and -j N produce byte-identical tables.
package experiments

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mil/internal/fault"
	"mil/internal/obs"
	"mil/internal/sim"
	"mil/internal/trace"
	"mil/internal/workload"
)

// Table is one experiment's output.
type Table struct {
	ID     string // "Figure 16(a)", "Table 4", ...
	Title  string
	Note   string // what the paper reports and what shape to expect
	Header []string
	Rows   [][]string
}

// String renders the table as GitHub markdown.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "### %s — %s\n\n", t.ID, t.Title)
	if t.Note != "" {
		fmt.Fprintf(&sb, "%s\n\n", t.Note)
	}
	sb.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	sb.WriteString("|" + strings.Repeat("---|", len(t.Header)) + "\n")
	for _, row := range t.Rows {
		sb.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	return sb.String()
}

// Spec identifies one cell of the sweep cross product. The zero extension
// fields select the clean evaluation configuration of Figures 16-22.
type Spec struct {
	System    sim.SystemKind
	Scheme    string
	Bench     string
	X         int  // MiL look-ahead override (0 = scheme default)
	PowerDown bool // Extension 3 fast power-down

	// Reliability cells (Extension 5): link BER with the DDR4 RAS features
	// (write CRC + CA parity) enabled. RAS implies a seeded run even at
	// BER = 0, so the clean anchors come from the same stream family.
	BER float64
	RAS bool
}

// reliability reports whether the cell runs the fault/RAS path.
func (s Spec) reliability() bool { return s.RAS || s.BER > 0 }

// label renders the cell for progress lines.
func (s Spec) label() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s/%s/%s", s.System, s.Scheme, s.Bench)
	if s.X > 0 {
		fmt.Fprintf(&sb, " x=%d", s.X)
	}
	if s.PowerDown {
		sb.WriteString(" pd")
	}
	if s.reliability() {
		fmt.Fprintf(&sb, " ber=%g", s.BER)
	}
	return sb.String()
}

// Runner executes and caches simulations.
//
// A Runner is safe for concurrent use; configure the exported fields before
// the first run and leave them alone afterwards. The zero MemOps/Workers
// select the defaults.
type Runner struct {
	// MemOps is the per-thread memory-operation budget for every run.
	MemOps int64
	// Workers bounds the number of simulations in flight (the -j dial);
	// 0 selects GOMAXPROCS.
	Workers int
	// Progress, when non-nil, receives one line per fresh simulation with
	// its wall-clock cost. Line order follows completion order and is the
	// only output that depends on scheduling; tables never do.
	Progress io.Writer
	// Suite, when non-empty, restricts every suite-driven figure to these
	// benchmarks (must be Table 3 names). The golden-file regression
	// harness uses it to pin the full generator set on a reduced suite that
	// regenerates in seconds. Figures that hard-code their benchmarks per
	// the paper (Figure 2's CG/GUPS, Extension 5's GUPS) are unaffected.
	// nil selects the full Table 3 suite.
	Suite []string
	// BaseSeed, when non-zero, replaces the legacy stream seeds with seeds
	// derived from BaseSeed and the cell's benchmark. The scheme and system
	// are deliberately excluded from the derivation: every scheme must
	// replay the identical access trace (the paper's controlled-variable
	// methodology), so the seed may depend only on what the workload is,
	// never on how it is coded. BaseSeed == 0 keeps the legacy seeds
	// (0 for evaluation cells, 1 for reliability cells), under which the
	// archived EXPERIMENTS.md numbers remain reproducible.
	BaseSeed uint64
	// Metrics, when non-nil, aggregates every fresh simulation's
	// observability counters (internal/obs) into one registry. Its
	// snapshot is byte-identical at any Workers count: the singleflight
	// cache runs each distinct cell exactly once and all registry updates
	// commute. Nil (the default) keeps every run on the zero-cost path.
	// Caveat: an attempt aborted by CellTimeout or a panic has already
	// bumped shared counters, so a sweep that needed retries is no longer
	// byte-comparable to a clean one.
	Metrics *obs.Registry
	// CellTimeout bounds each simulation's wall-clock time; zero disables
	// the bound. A cell that exceeds it is retried with a doubled budget
	// (capped at 8x CellTimeout) up to cellAttempts tries, then fails with
	// sim.ErrDeadline. The backoff absorbs transient slowness (a loaded
	// machine) without letting one pathological cell wedge the sweep.
	CellTimeout time.Duration
	// Traces, when non-nil, turns on the record/replay second-level cache
	// (DESIGN.md §5.11). No command sets it; perfbench's sweep-cached
	// workload does, with a fresh Store per sweep. The first cell of each
	// front-end timing class records its memory trace while simulating in
	// full; every later cell of the class replays the trace, simulating
	// only the memory backend. The store may be shared between Runners —
	// traces are keyed by the full FrontEndKey, so two Runners can only
	// exchange traces when their MemOps, seeds, and suite agree. Ignored
	// when Metrics is set: which cell of a class records is
	// scheduling-dependent under Workers > 1, and replayed cells skip the
	// front end, so the metrics snapshot would lose its byte-identity
	// across worker counts. Journal-restored cells never reach the trace
	// store: the journal pre-seeds the first-level cache, which is
	// consulted first.
	//
	// Throughput caveat: a cell waiting for its class's recording leader
	// blocks while holding a worker slot, so a sweep dominated by one class
	// briefly serializes behind the recorder. On the full suite the cache
	// gives no wall gain and multiplies peak memory (ROADMAP item 1).
	Traces *trace.Store

	mu    sync.Mutex
	cache map[string]*inflight
	sem   chan struct{}
	wg    sync.WaitGroup

	journalMu sync.Mutex
	journal   *os.File

	launched    atomic.Int64
	finished    atomic.Int64
	simNanos    atomic.Int64
	traceHits   atomic.Int64
	replayNanos atomic.Int64

	clusterHits   atomic.Int64
	clusterTrials atomic.Int64
	clusterMisses atomic.Int64

	eventsFired   atomic.Int64
	cyclesSkipped atomic.Int64
}

// inflight is one cache entry: done closes when res/err are final, so
// concurrent requests for the same key share a single execution.
type inflight struct {
	done chan struct{}
	res  *sim.Result
	err  error
}

// NewRunner returns a runner with the given run length (0 = default).
func NewRunner(memOps int64) *Runner {
	if memOps <= 0 {
		memOps = sim.DefaultMemOps
	}
	return &Runner{MemOps: memOps}
}

// Stats reports the number of completed fresh simulations and their summed
// single-threaded wall-clock cost (the serial-equivalent time).
func (r *Runner) Stats() (runs int64, simTime time.Duration) {
	return r.finished.Load(), time.Duration(r.simNanos.Load())
}

// TraceStats reports how many cells were satisfied by replaying a recorded
// memory trace instead of a full simulation, and their summed wall-clock
// cost. Replayed cells are excluded from Stats and LoopTotals: they run no
// front end, so counting them as simulations would overstate the sweep.
func (r *Runner) TraceStats() (hits int64, replayTime time.Duration) {
	return r.traceHits.Load(), time.Duration(r.replayNanos.Load())
}

// ClusterStats reports the cluster index's work (DESIGN.md §5.12): hits
// are exact-miss cells that adopted a sibling class's recorded stream,
// trials are candidate replays attempted while deciding (every hit costs
// at least one trial; failed trials are divergence-fenced rejections), and
// misses are leaders that recorded a fresh stream after finding no
// adoptable candidate. Exact-key replays (TraceStats hits minus cluster
// hits) never consult the cluster. The conservation identity — cluster
// hits + misses equals the number of recording leaders, and the store's
// stream count equals the misses — is pinned by TestClusterAccounting.
func (r *Runner) ClusterStats() (hits, trials, misses int64) {
	return r.clusterHits.Load(), r.clusterTrials.Load(), r.clusterMisses.Load()
}

// LoopTotals reports the event-core counters summed over every fresh
// simulation: cycles actually fired versus cycles proven no-ops and
// skipped. The ratio is the work the event-driven core avoids.
func (r *Runner) LoopTotals() (eventsFired, cyclesSkipped int64) {
	return r.eventsFired.Load(), r.cyclesSkipped.Load()
}

// workers returns the effective pool width.
func (r *Runner) workers() int {
	if r.Workers > 0 {
		return r.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// seedFor derives the cell's stream seed; see BaseSeed for the contract.
func (r *Runner) seedFor(s Spec) uint64 {
	var legacy uint64
	if s.reliability() {
		legacy = 1
	}
	if r.BaseSeed == 0 {
		return legacy
	}
	seed := splitmix64(r.BaseSeed ^ fnv64(s.Bench) ^ (legacy * 0x9e3779b97f4a7c15))
	if seed == 0 {
		seed = 1 // zero would silently select the legacy streams
	}
	return seed
}

// configFor expands a cell into its full simulator configuration. It is a
// pure function of (Runner settings, Spec): determinism of the sweep reduces
// to determinism of sim.Run, which owns no shared state.
func (r *Runner) configFor(s Spec) (sim.Config, error) {
	b, err := workload.ByName(s.Bench)
	if err != nil {
		return sim.Config{}, err
	}
	cfg := sim.Config{
		System: s.System, Scheme: s.Scheme, Benchmark: b,
		MemOpsPerThread: r.MemOps, LookaheadX: s.X, PowerDown: s.PowerDown,
		Seed: r.seedFor(s),
	}
	if r.Metrics != nil {
		// Deliberately not part of runKeyOf: observability never changes a
		// result, and the registry is shared across every cell.
		cfg.Obs = &obs.Obs{Metrics: r.Metrics}
	}
	if s.reliability() {
		cfg.Fault = fault.Config{BER: s.BER}
		cfg.WriteCRC, cfg.CAParity = true, true
	}
	return cfg, nil
}

// runKeyOf renders the full semantic configuration of a run as a canonical
// string. Every field that can change a result is included - the former
// struct key dropped the reliability and seed dimensions, so two distinct
// configurations could alias to one cached result on extension paths.
func runKeyOf(cfg *sim.Config) string {
	return fmt.Sprintf("sys=%v scheme=%s bench=%s ops=%d x=%d pd=%t verify=%t fault=%+v crc=%t cap=%t retry=%+v seed=%d",
		cfg.System, cfg.Scheme, cfg.Benchmark.Name, cfg.MemOpsPerThread,
		cfg.LookaheadX, cfg.PowerDown, cfg.Verify, cfg.Fault,
		cfg.WriteCRC, cfg.CAParity, cfg.Retry, cfg.Seed)
}

// cell returns the cached, in-flight, or freshly computed result for a cell.
func (r *Runner) cell(s Spec) (*sim.Result, error) {
	cfg, err := r.configFor(s)
	if err != nil {
		return nil, err
	}
	return r.result(cfg, s.label())
}

// result is the singleflight core: the first caller for a key computes it on
// a worker slot while later callers block on the entry; distinct keys run in
// parallel up to the pool width.
func (r *Runner) result(cfg sim.Config, label string) (*sim.Result, error) {
	key := runKeyOf(&cfg)
	r.mu.Lock()
	if r.cache == nil {
		r.cache = make(map[string]*inflight)
	}
	if e, ok := r.cache[key]; ok {
		r.mu.Unlock()
		<-e.done
		return e.res, e.err
	}
	e := &inflight{done: make(chan struct{})}
	r.cache[key] = e
	if r.sem == nil {
		r.sem = make(chan struct{}, r.workers())
	}
	sem := r.sem
	r.mu.Unlock()

	sem <- struct{}{}
	seq := r.launched.Add(1)
	start := time.Now()
	var replayed bool
	e.res, e.err, replayed = r.runCellTraced(cfg)
	elapsed := time.Since(start)
	<-sem

	if replayed {
		r.traceHits.Add(1)
		r.replayNanos.Add(int64(elapsed))
	} else {
		r.finished.Add(1)
		r.simNanos.Add(int64(elapsed))
		if e.res != nil {
			r.eventsFired.Add(e.res.Loop.EventsFired)
			r.cyclesSkipped.Add(e.res.Loop.CyclesSkipped)
		}
	}
	if e.err == nil {
		if jerr := r.appendJournal(key, e.res); jerr != nil {
			e.res, e.err = nil, jerr
		}
	}
	if r.Progress != nil {
		how := ""
		if replayed {
			how = ", replay"
		}
		r.mu.Lock()
		fmt.Fprintf(r.Progress, "run %d: %s ops=%d seed=%d (%.0fms%s)\n",
			seq, label, cfg.MemOpsPerThread, cfg.Seed, float64(elapsed.Milliseconds()), how)
		r.mu.Unlock()
	}
	close(e.done)
	return e.res, e.err
}

// runCellTraced is runCell behind the trace cache. When a Store is attached
// (and Metrics is not — see the Traces field), the first cell of each
// front-end timing class records its memory trace while simulating in full
// and publishes it; every later cell of the class replays the trace,
// simulating only the backend. An exact-miss leader additionally trials
// the cluster index's candidate streams (same front-end inputs, sibling
// timing class) before recording, adopting the first that replays clean —
// so statically distinct classes with empirically identical timing share
// one stream. replayed reports which path produced the result, so the
// caller can keep fresh-simulation accounting honest. Any replay failure —
// which the replay driver's cycle-by-cycle verification turns into a
// divergence error rather than silently wrong numbers — falls back to the
// next candidate and ultimately a full simulation.
func (r *Runner) runCellTraced(cfg sim.Config) (res *sim.Result, err error, replayed bool) {
	if r.Traces == nil || r.Metrics != nil {
		res, err = r.runCell(cfg)
		return res, err, false
	}
	tr, leader, publish, abort := r.Traces.Acquire(cfg.FrontEndKey())
	switch {
	case tr != nil:
		rcfg := cfg
		rcfg.ReplayTrace = tr
		if res, err = r.runCell(rcfg); err == nil {
			return res, nil, true
		}
		res, err = r.runCell(cfg)
		return res, err, false
	case leader:
		// Exact miss. Before paying for a fresh recording, trial the
		// cluster's candidate streams — traces recorded under sibling
		// timing classes that ran the same front-end inputs (ClusterKey).
		// The replay divergence fence is the arbiter: a candidate whose
		// boundary timing differs fails its trial, so a clean trial means
		// this cell's stream already exists. The adopted candidate is
		// published under this cell's exact key, sharing the stream.
		// Fault-injection cells have ClusterKey "" and never reach here
		// with candidates: corrupted payloads are knob-dependent in ways
		// the (timing-only) fence cannot see, so they must not cluster.
		// Same-cluster leaders serialize (LockCluster) so the adoption
		// split is deterministic at any worker count: a later leader
		// always trials against every earlier same-cluster recording.
		ck := cfg.ClusterKey()
		unlock := r.Traces.LockCluster(ck)
		defer unlock()
		for _, cand := range r.Traces.Candidates(ck) {
			r.clusterTrials.Add(1)
			rcfg := cfg
			rcfg.ReplayTrace = cand
			if res, err = r.runCell(rcfg); err == nil {
				publish(cand)
				r.clusterHits.Add(1)
				return res, nil, true
			}
		}
		var rec *trace.Trace
		rcfg := cfg
		rcfg.RecordTrace = func(t *trace.Trace) { rec = t }
		res, err = r.runCell(rcfg)
		if err == nil && rec != nil {
			publish(rec)
			if ck != "" {
				r.clusterMisses.Add(1)
				r.Traces.AddCandidate(ck, rec)
			}
		} else {
			abort()
		}
		return res, err, false
	default:
		// The leader aborted (its simulation failed); run plainly.
		res, err = r.runCell(cfg)
		return res, err, false
	}
}

// cellAttempts bounds the deadline-retry loop in runCell.
const cellAttempts = 3

// runCell executes one simulation with the sweep's robustness wrappers:
// a panic inside the simulator fails the cell instead of the whole
// sweep, and CellTimeout (when set) turns a wedged cell into a retried,
// then failed, one. Retries are safe because sim.Run owns no shared
// state — an aborted attempt leaves nothing behind (except shared
// Metrics counters; see that field's caveat).
func (r *Runner) runCell(cfg sim.Config) (*sim.Result, error) {
	attempt := func(c sim.Config) (res *sim.Result, err error) {
		defer func() {
			if p := recover(); p != nil {
				res, err = nil, fmt.Errorf("experiments: %s/%s/%s panicked: %v",
					c.System, c.Scheme, c.Benchmark.Name, p)
			}
		}()
		return sim.Run(c)
	}
	timeout := r.CellTimeout
	for tries := 1; ; tries++ {
		c := cfg
		if timeout > 0 {
			c.Deadline = time.Now().Add(timeout)
		}
		res, err := attempt(c)
		if timeout == 0 || tries >= cellAttempts || !errors.Is(err, sim.ErrDeadline) {
			return res, err
		}
		timeout *= 2
		if cap := 8 * r.CellTimeout; timeout > cap {
			timeout = cap
		}
	}
}

// Prefetch schedules cells on the worker pool without waiting for them.
// Table generators call it with their full cross product up front; errors
// (if any) surface when the generator fetches the failed cell.
func (r *Runner) Prefetch(specs ...Spec) {
	for _, s := range specs {
		s := s
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			_, _ = r.cell(s)
		}()
	}
}

// Wait blocks until every prefetched cell has settled.
func (r *Runner) Wait() { r.wg.Wait() }

// get returns the cached or freshly computed result for a configuration.
func (r *Runner) get(system sim.SystemKind, scheme, bench string, x int) (*sim.Result, error) {
	return r.cell(Spec{System: system, Scheme: scheme, Bench: bench, X: x})
}

// getPD is get with the power-down extension toggled (Extension 3).
func (r *Runner) getPD(system sim.SystemKind, scheme, bench string, x int, pd bool) (*sim.Result, error) {
	return r.cell(Spec{System: system, Scheme: scheme, Bench: bench, X: x, PowerDown: pd})
}

// getFault returns the result for a reliability cell: the scheme under link
// BER with DDR4 write CRC and CA parity enabled, seeded for reproducibility.
func (r *Runner) getFault(system sim.SystemKind, scheme, bench string, ber float64) (*sim.Result, error) {
	return r.cell(Spec{System: system, Scheme: scheme, Bench: bench, BER: ber, RAS: true})
}

// names returns the effective benchmark suite in Table 3 order.
func (r *Runner) names() []string {
	if len(r.Suite) > 0 {
		return r.Suite
	}
	return workload.Names()
}

// prefetchSuite schedules scheme x suite cross products (the common shape of
// the evaluation figures) plus the baselines suiteSorted needs.
func (r *Runner) prefetchSuite(system sim.SystemKind, schemes ...string) {
	var specs []Spec
	for _, n := range r.names() {
		specs = append(specs, Spec{System: system, Scheme: "baseline", Bench: n})
		for _, s := range schemes {
			specs = append(specs, Spec{System: system, Scheme: s, Bench: n})
		}
	}
	r.Prefetch(specs...)
}

// suiteSorted returns the benchmark names sorted by the baseline run's bus
// utilization on the given system, low to high - the paper's presentation
// order for Figures 5 and 16-19.
func (r *Runner) suiteSorted(system sim.SystemKind) ([]string, error) {
	names := append([]string(nil), r.names()...)
	r.prefetchSuite(system)
	util := make(map[string]float64, len(names))
	for _, n := range names {
		res, err := r.get(system, "baseline", n, 0)
		if err != nil {
			return nil, err
		}
		util[n] = res.BusUtilization()
	}
	sort.SliceStable(names, func(i, j int) bool { return util[names[i]] < util[names[j]] })
	return names, nil
}

// fnv64 hashes a string (FNV-1a).
func fnv64(s string) uint64 {
	h := uint64(1469598103934665603)
	for _, c := range []byte(s) {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// splitmix64 is the SplitMix64 finalizer, used to whiten derived seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// geomean returns the geometric mean of positive values.
func geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		if v <= 0 {
			return 0
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vs)))
}

// f2, f3, pct format numbers for table cells.
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
