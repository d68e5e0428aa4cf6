// Package trace is the memory-trace record/replay layer (DESIGN.md §5.11).
//
// A Trace captures everything that crosses the cache↔memctrl boundary
// during one simulation: the ordered stream of accepted requests (clock,
// thread stream, op, address, data line, completion cycle) plus the
// front-end totals a replayed run must report (cycle counts, cache
// statistics, loop counters, boundary backpressure counters). Replaying a
// trace drives memctrl.System directly — no cores, caches, or workload
// streams are simulated — and reproduces the bus, energy, and Figure-5
// results byte-identically for ANY codec/policy/fault cell whose
// configuration shares the trace's front-end (see sim.Config.FrontEndKey).
//
// A trace file is a positional payload inside a CRC-checked frame that
// binds it to the recording configuration's front-end hash (codec.go).
// Any layout change bumps Version, and old traces are rejected rather
// than misread.
package trace

import (
	"fmt"
	"os"

	"mil/internal/bitblock"
	"mil/internal/cache"
)

// Version is the trace format version. Bump it on ANY change to the
// payload layout; decode rejects mismatches.
const Version uint32 = 1

// Kind is the event type at the cache↔memctrl boundary.
type Kind uint8

// The event kinds. Only controller *acceptances* are recorded: a request
// the controller rejected is retried by the hierarchy until accepted, and
// that whole dance collapses into the single acceptance event — replay
// never re-enqueues a rejected request.
const (
	// ReadAccept is a read request the controller accepted.
	ReadAccept Kind = iota
	// WriteAccept is a write request the controller accepted.
	WriteAccept
	// Promote flips an in-flight (already accepted) prefetch read to
	// demand priority.
	Promote
)

// Event is one boundary crossing.
type Event struct {
	Kind Kind
	// Clock is the DRAM cycle at which the controller accepted (or, for
	// Promote, observed) the event.
	Clock int64
	// Line is the cache-line address.
	Line int64
	// Stream is the issuing hardware thread (reads and writes).
	Stream int
	// Demand is the read's priority at acceptance, after any merge with a
	// pending retry (reads only).
	Demand bool
	// Data is the written line (writes only).
	Data bitblock.Block
	// DoneAt is the DRAM cycle at which the controller completed the
	// request (reads and writes; Promote carries none).
	DoneAt int64
}

// Trace is one recorded run.
type Trace struct {
	// CPUCycles, DRAMCycles, and Instructions are the recorded run's
	// Result totals; DRAMCycles also bounds the replay timeline.
	CPUCycles    int64
	DRAMCycles   int64
	Instructions int64
	// Cache is the recorded run's full cache statistics (the replayed
	// Result reports them verbatim — the hierarchy never runs).
	Cache cache.Stats
	// EventsFired/CyclesSkipped/Steplock are the recorded run's loop
	// counters; a replayed Result reports the recorded loop, not the
	// replay driver's own cadence.
	EventsFired   int64
	CyclesSkipped int64
	Steplock      bool
	// ThreadBlocks, WBBackpressure, FillRetries, and WBQueuePeak mirror
	// the front-end observability counters that the skipped components
	// would have produced, so a replayed run's metrics CSV matches a full
	// run's byte for byte.
	ThreadBlocks   int64
	WBBackpressure int64
	FillRetries    int64
	WBQueuePeak    int64

	Events []Event
}

// Encode frames the trace. frontEndHash binds it to the recording
// configuration's front-end (sim.Config.FrontEndHash): decoding under any
// other front-end is rejected before a single event is read.
func (t *Trace) Encode(frontEndHash uint64) []byte {
	return encodeFrame(frontEndHash, t.payload())
}

// payload serializes the trace body (everything inside the frame).
func (t *Trace) payload() []byte {
	var w writer
	w.I64(t.CPUCycles)
	w.I64(t.DRAMCycles)
	w.I64(t.Instructions)
	writeCacheStats(&w, &t.Cache)
	w.I64(t.EventsFired)
	w.I64(t.CyclesSkipped)
	w.Bool(t.Steplock)
	w.I64(t.ThreadBlocks)
	w.I64(t.WBBackpressure)
	w.I64(t.FillRetries)
	w.I64(t.WBQueuePeak)
	w.Len(len(t.Events))
	for i := range t.Events {
		e := &t.Events[i]
		w.U8(uint8(e.Kind))
		w.I64(e.Clock)
		w.I64(e.Line)
		w.Int(e.Stream)
		switch e.Kind {
		case ReadAccept:
			w.Bool(e.Demand)
			w.I64(e.DoneAt)
		case WriteAccept:
			w.Bytes64((*[bitblock.BlockBytes]byte)(&e.Data))
			w.I64(e.DoneAt)
		}
	}
	return w.buf
}

// Decode validates a framed trace and decodes it. Every structural
// invariant replay depends on is checked here — event kinds, nondecreasing
// clocks, completions after acceptance, everything inside the DRAM-cycle
// horizon — so a decoded Trace is safe to drive the controller with.
func Decode(data []byte, frontEndHash uint64) (*Trace, error) {
	r, err := decodeFrame(data, frontEndHash)
	if err != nil {
		return nil, err
	}
	t := &Trace{}
	t.CPUCycles = r.I64()
	t.DRAMCycles = r.I64()
	t.Instructions = r.I64()
	readCacheStats(r, &t.Cache)
	t.EventsFired = r.I64()
	t.CyclesSkipped = r.I64()
	t.Steplock = r.Bool()
	t.ThreadBlocks = r.I64()
	t.WBBackpressure = r.I64()
	t.FillRetries = r.I64()
	t.WBQueuePeak = r.I64()
	n := r.Len()
	if r.err == nil && n > 0 {
		t.Events = make([]Event, 0, n)
	}
	for i := 0; i < n && r.err == nil; i++ {
		var e Event
		k := r.U8()
		if k > uint8(Promote) {
			return nil, fmt.Errorf("trace: event %d: unknown kind %d", i, k)
		}
		e.Kind = Kind(k)
		e.Clock = r.I64()
		e.Line = r.I64()
		e.Stream = r.Int()
		switch e.Kind {
		case ReadAccept:
			e.Demand = r.Bool()
			e.DoneAt = r.I64()
		case WriteAccept:
			r.Bytes64((*[bitblock.BlockBytes]byte)(&e.Data))
			e.DoneAt = r.I64()
		}
		t.Events = append(t.Events, e)
	}
	if r.err != nil {
		return nil, r.err
	}
	if !r.done() {
		return nil, fmt.Errorf("trace: trailing bytes after the last event")
	}
	if err := t.validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// validate checks the structural invariants replay depends on.
func (t *Trace) validate() error {
	if t.CPUCycles < 1 || t.DRAMCycles < 1 {
		return fmt.Errorf("trace: %d CPU / %d DRAM cycles; a run covers at least one of each",
			t.CPUCycles, t.DRAMCycles)
	}
	if t.EventsFired+t.CyclesSkipped != t.CPUCycles {
		return fmt.Errorf("trace: loop counters %d fired + %d skipped != %d CPU cycles",
			t.EventsFired, t.CyclesSkipped, t.CPUCycles)
	}
	prev := int64(0)
	for i := range t.Events {
		e := &t.Events[i]
		if e.Clock < prev {
			return fmt.Errorf("trace: event %d: clock %d after %d (events must be in acceptance order)",
				i, e.Clock, prev)
		}
		prev = e.Clock
		if e.Clock >= t.DRAMCycles {
			return fmt.Errorf("trace: event %d: clock %d outside the %d-cycle run", i, e.Clock, t.DRAMCycles)
		}
		if e.Kind != Promote {
			if e.DoneAt <= e.Clock || e.DoneAt >= t.DRAMCycles {
				return fmt.Errorf("trace: event %d: done at %d, accepted at %d in a %d-cycle run",
					i, e.DoneAt, e.Clock, t.DRAMCycles)
			}
		}
	}
	return nil
}

// writeCacheStats serializes cache.Stats in fixed field order. The
// cache-stats drift guard in trace_test.go fails if the struct gains or
// loses a field without this list (and Version) being updated.
func writeCacheStats(w *writer, s *cache.Stats) {
	w.I64(s.L1Hits)
	w.I64(s.L1Misses)
	w.I64(s.L2Hits)
	w.I64(s.L2Misses)
	w.I64(s.MSHRMerges)
	w.I64(s.PrefetchHits)
	w.I64(s.Writebacks)
	w.I64(s.Upgrades)
	w.I64(s.Interventions)
	w.I64(s.PrefetchesIssued)
	w.I64(s.PrefetchesDropped)
	w.I64(s.BackInvalidations)
}

func readCacheStats(r *reader, s *cache.Stats) {
	s.L1Hits = r.I64()
	s.L1Misses = r.I64()
	s.L2Hits = r.I64()
	s.L2Misses = r.I64()
	s.MSHRMerges = r.I64()
	s.PrefetchHits = r.I64()
	s.Writebacks = r.I64()
	s.Upgrades = r.I64()
	s.Interventions = r.I64()
	s.PrefetchesIssued = r.I64()
	s.PrefetchesDropped = r.I64()
	s.BackInvalidations = r.I64()
}

// WriteFile atomically writes a framed trace file (temp file + rename).
func WriteFile(path string, frontEndHash uint64, t *Trace) error {
	return writeFrame(path, frontEndHash, t.payload())
}

// ReadFile reads and validates a trace file.
func ReadFile(path string, frontEndHash uint64) (*Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	t, err := Decode(data, frontEndHash)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}
