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
// Traces live in memory only: sim.Config.RecordTrace hands one to the
// caller after a run, sim.Config.ReplayTrace drives one, and Store shares
// them between the cells of a sweep.
package trace

import (
	"mil/internal/bitblock"
	"mil/internal/cache"
)

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
