package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"mil/internal/experiments"
	"mil/internal/obs"
	"mil/internal/sim"
	"mil/internal/trace"
	"mil/internal/workload"
)

// The golden configuration: every table on the reduced suite at 120
// memory operations per thread, as pinned by the committed goldens.
const (
	sweepOps  = 120
	goldenDir = "internal/experiments/testdata/golden"
)

var sweepSuite = []string{"MM", "STRMATCH", "GUPS"}

// sweep is the sweep-fresh and sweep-cached workloads: one iteration
// renders all the tables on a fresh Runner, with a cold trace.Store when
// cached.
type sweep struct {
	o      options
	cached bool

	want  []string      // the expected rendering of every table
	ref   []*sim.Result // the reference sweep's per-cell results
	cells int           // cells in one sweep
	// cycles is Σ CPUCycles over one sweep's cells.
	cycles int64
}

func newSweep(o options, cached bool) (bench, error) {
	for _, name := range sweepSuite {
		b, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		b.Lines() // lays the benchmark out
	}
	return &sweep{o: o, cached: cached}, nil
}

func (s *sweep) runner(cached bool) (*experiments.Runner, *trace.Store) {
	r := experiments.NewRunner(sweepOps)
	r.Suite = sweepSuite
	r.Workers = workers()
	r.BaseSeed = s.o.seed
	var st *trace.Store
	if cached {
		st = trace.NewStore()
		r.Traces = st
	}
	return r, st
}

// reference runs a no-store sweep with a journal, which hands back every
// cell's Result. At seed 0 its tables must match the goldens; at any
// other seed they are what every later sweep must match.
func (s *sweep) reference(t *tally) error {
	r, _ := s.runner(false)
	prog := &progressLog{}
	r.Progress = prog
	journal := filepath.Join(outDir, fmt.Sprintf("journal-%d.jsonl", os.Getpid()))
	_ = os.Remove(journal)
	defer os.Remove(journal)
	if _, err := r.OpenJournal(journal); err != nil {
		return err
	}
	tables, err := r.All()
	if cerr := r.CloseJournal(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("reference sweep: %w", err)
	}
	if s.ref, err = readJournal(journal); err != nil {
		return err
	}
	s.cells = len(prog.lines)
	if len(s.ref) != s.cells {
		return fmt.Errorf("reference sweep: %d journaled results for %d cells", len(s.ref), s.cells)
	}
	for _, res := range s.ref {
		s.cycles += res.CPUCycles
	}
	got := render(tables)
	if s.o.seed != 0 {
		s.want = got
		t.add(s.cells, 0)
		return nil
	}
	if s.want, err = readGoldens(tables); err != nil {
		return err
	}
	t.add(s.cells, s.failedCells(got, "reference sweep"))
	return nil
}

func (s *sweep) iterate(sp *spanLog) (iteration, error) {
	r, store := s.runner(s.cached)
	prog := &progressLog{}
	r.Progress = prog
	var tables []*experiments.Table
	var err error
	var start time.Time
	it := measure(func() {
		start = time.Now()
		tables, err = s.tables(r, sp)
	})
	cells, err2 := prog.cells()
	if err2 != nil {
		return it, err2
	}
	it.ops, it.simCycles = s.cells, s.cycles
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: sweep failed:", err)
		it.failed = s.cells
	} else {
		it.failed = s.failedCells(render(tables), "sweep")
	}
	for _, c := range cells {
		it.cellMS = append(it.cellMS, float64(c.end.Sub(c.start).Milliseconds()))
	}

	runs, simTime := r.Stats()
	hits, replayTime := r.TraceStats()
	clHits, clTrials, _ := r.ClusterStats()
	fired, skipped := r.LoopTotals()
	it.counts = map[string]float64{
		"experiments.cells":       float64(len(cells)),
		"experiments.fresh_sims":  float64(runs),
		"experiments.cell_wall_s": (simTime + replayTime).Seconds(),
		"trace.hits":              float64(hits),
		"trace.replay_s":          replayTime.Seconds(),
		"trace.cluster_hits":      float64(clHits),
		"trace.cluster_trials":    float64(clTrials),
		"sim.events_fired":        float64(fired),
		"sim.cycles_skipped":      float64(skipped),
		"sim.fresh_wall_s":        simTime.Seconds(),
	}
	if store != nil {
		// Every exact key has one leader, which either adopts a cluster
		// candidate or simulates fresh; fresh simulations beyond that are
		// replays that diverged and fell back.
		it.counts["trace.fallbacks"] = float64(runs - (int64(store.Len()) - clHits))
		it.counts["trace.streams"] = float64(store.Streams())
		it.counts["trace.resident_mb"] = float64(store.SizeBytes()) / 1e6
	}
	if sp != nil {
		sp.span("iteration", "sweep", start, start.Add(time.Duration(it.wall*1e9)))
		sp.cells(cells)
	}
	return it, nil
}

// tables renders every table. Untraced, it is the default milexp path,
// Runner.All; traced, it runs the same generators concurrently the way
// Runner.Tables does and records a span per generator.
func (s *sweep) tables(r *experiments.Runner, sp *spanLog) ([]*experiments.Table, error) {
	if sp == nil {
		return r.All()
	}
	gens := experiments.Generators()
	tables := make([]*experiments.Table, len(gens))
	errs := make([]error, len(gens))
	starts, ends := make([]time.Time, len(gens)), make([]time.Time, len(gens))
	var wg sync.WaitGroup
	for i, g := range gens {
		i, g := i, g
		wg.Add(1)
		go func() {
			defer wg.Done()
			starts[i] = time.Now()
			tables[i], errs[i] = g.Run(r)
			ends[i] = time.Now()
		}()
	}
	wg.Wait()
	r.Wait()
	for i, g := range gens {
		sp.span("generator "+g.ID, g.ID, starts[i], ends[i])
	}
	return tables, errors.Join(errs...)
}

// failedCells checks a sweep's tables against the expected rendering. The
// tables are the sweep's output, so one wrong table fails all its cells.
func (s *sweep) failedCells(got []string, what string) int {
	bad := 0
	if len(got) != len(s.want) {
		fmt.Fprintf(os.Stderr, "perfbench: %s rendered %d tables, want %d\n", what, len(got), len(s.want))
		return s.cells
	}
	for i := range got {
		if got[i] != s.want[i] {
			bad++
			fmt.Fprintf(os.Stderr, "perfbench: %s: table %d differs from its reference: %s\n", what, i, firstDiff(s.want[i], got[i]))
		}
	}
	if bad > 0 {
		return s.cells
	}
	return 0
}

// obsRegistry runs one sweep with the metrics registry attached, for the
// counters only the obs layer keeps. Attaching Runner.Metrics switches
// the trace cache off, so sweep-cached has no such run and reads zero.
func (s *sweep) obsRegistry(t *tally) (*obs.Registry, error) {
	if s.cached {
		return nil, nil
	}
	r, _ := s.runner(false)
	reg := obs.NewRegistry()
	r.Metrics = reg
	tables, err := r.All()
	if err != nil {
		return nil, fmt.Errorf("metrics sweep: %w", err)
	}
	t.add(s.cells, s.failedCells(render(tables), "metrics sweep"))
	return reg, nil
}

func (s *sweep) layers(m metricSet, its []iteration, tr tracedRun, t *tally) error {
	reg, err := s.obsRegistry(t)
	if err != nil {
		return err
	}
	var specs []streamSpec
	var probes []sim.Config
	for _, sys := range []sim.SystemKind{sim.Server, sim.Mobile} {
		for _, name := range sweepSuite {
			specs = append(specs, streamSpec{sys, name, sweepOps})
			b, err := workload.ByName(name)
			if err != nil {
				return err
			}
			probes = append(probes, sim.Config{System: sys, Scheme: "mil", Benchmark: b, MemOpsPerThread: sweepOps, Seed: s.o.seed})
		}
	}
	return addLayers(m, layerInput{
		its: its, tr: tr, results: s.ref,
		streams: specs, seed: s.o.seed, probes: probes, reg: reg,
	}, t)
}

func render(tables []*experiments.Table) []string {
	out := make([]string, len(tables))
	for i, tab := range tables {
		out[i] = tab.String()
	}
	return out
}

// readGoldens reads the committed golden rendering of each table.
func readGoldens(tables []*experiments.Table) ([]string, error) {
	var out []string
	for _, tab := range tables {
		slug := strings.NewReplacer(" ", "-", "(", "", ")", "").Replace(strings.ToLower(tab.ID))
		buf, err := os.ReadFile(filepath.Join(goldenDir, slug+".md"))
		if err != nil {
			return nil, fmt.Errorf("golden for %s: %w", tab.ID, err)
		}
		out = append(out, string(buf))
	}
	return out, nil
}

// readJournal reads the per-cell Results a Runner journaled.
func readJournal(path string) ([]*sim.Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	var out []*sim.Result
	for sc.Scan() {
		var rec struct {
			Result json.RawMessage `json:"result"`
		}
		res := new(sim.Result)
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("journal %s: %w", path, err)
		}
		if err := json.Unmarshal(rec.Result, res); err != nil {
			return nil, fmt.Errorf("journal %s: %w", path, err)
		}
		out = append(out, res)
	}
	return out, sc.Err()
}

func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d: want %q, got %q", i+1, w, g)
		}
	}
	return "trailing bytes differ"
}

// progressLog receives the Runner's Progress stream (one line per cell,
// written under the Runner's lock) and stamps each line's arrival.
type progressLog struct {
	lines []progressLine
}

type progressLine struct {
	at   time.Time
	text string
}

func (p *progressLog) Write(b []byte) (int, error) {
	p.lines = append(p.lines, progressLine{time.Now(), string(b)})
	return len(b), nil
}

// cells reconstructs each cell's span from its Progress line,
//
//	run 7: server-ddr4/mil/GUPS ops=120 seed=0 (15ms, replay)
//
// ending when the line arrived and starting its reported (whole
// millisecond) wall time earlier.
func (p *progressLog) cells() ([]cellSpan, error) {
	out := make([]cellSpan, 0, len(p.lines))
	for _, l := range p.lines {
		colon, ops, paren := strings.Index(l.text, ": "), strings.Index(l.text, " ops="), strings.LastIndexByte(l.text, '(')
		msEnd := strings.Index(l.text[paren+1:], "ms")
		if colon < 0 || ops < colon || paren < 0 || msEnd < 0 {
			return nil, fmt.Errorf("unparsable progress line %q", l.text)
		}
		ms, err := strconv.ParseFloat(l.text[paren+1:paren+1+msEnd], 64)
		if err != nil {
			return nil, fmt.Errorf("progress line %q: %w", l.text, err)
		}
		out = append(out, cellSpan{
			label:  l.text[colon+2 : ops],
			replay: strings.Contains(l.text[paren:], "replay"),
			start:  l.at.Add(-time.Duration(ms * float64(time.Millisecond))),
			end:    l.at,
		})
	}
	return out, nil
}
