// Package sched holds the scheduling contract of the event-driven
// simulation core: the Never sentinel, the per-domain NextWake convention,
// the CPU<->DRAM clock-domain crossing math, and the monotone event clock
// that advances the simulation from one wake to the next.
//
// The contract every domain implements:
//
//   - NextWake returns a LOWER BOUND on the earliest future cycle (in the
//     domain's own clock) at which the domain's state can change without
//     external input, or Never when no self-driven change is scheduled.
//     Waking a domain early is harmless (its Tick is a no-op and it simply
//     reports a new bound); waking it late is a correctness bug, because
//     the skipped cycles would no longer be no-ops.
//   - SkipUntil/SkipTo performs the bulk accounting N consecutive no-op
//     Ticks would have performed (cycle counters, occupancy integrals,
//     stall cycles), without re-walking the skipped window.
//
// Under this contract the event loop "advance to min(next wakes), fire,
// repeat" is decision-identical to ticking every cycle: every cycle the
// per-cycle loop would have acted on is a wake, and every skipped cycle is
// provably a no-op.
package sched

// Never is the NextWake value of a domain with no self-scheduled future
// event. It is far beyond any reachable cycle count but small enough that
// clock-domain conversion (a multiply by the crossing ratio) cannot
// overflow int64.
const Never int64 = 1 << 60

// Clock converts cycles between the CPU domain and the DRAM domain. The
// evaluated systems run the CPU at an integer multiple of the DRAM clock
// (2x on both platforms: 3.2/1.6 GHz and 1.6/0.8 GHz), so the crossing
// math is exact integer arithmetic, not rounding.
type Clock struct {
	// CPUPerDRAM is the frequency ratio; CPU cycle t maps to DRAM cycle
	// t/CPUPerDRAM, and the DRAM domain ticks on CPU cycles where
	// t%CPUPerDRAM == 0.
	CPUPerDRAM int64
}

// DRAMCycle returns the DRAM cycle CPU cycle t falls in (floor division;
// t need not be a DRAM edge).
func (c Clock) DRAMCycle(t int64) int64 { return t / c.CPUPerDRAM }

// IsDRAMEdge reports whether CPU cycle t is a DRAM clock edge.
func (c Clock) IsDRAMEdge(t int64) bool { return t%c.CPUPerDRAM == 0 }

// CPUCycle returns the CPU cycle of DRAM edge d, saturating at Never so a
// Never-valued DRAM wake stays Never in the CPU domain.
func (c Clock) CPUCycle(d int64) int64 {
	if d >= Never/c.CPUPerDRAM {
		return Never
	}
	return d * c.CPUPerDRAM
}

// EventClock is the monotone clock of the event loop. Advance moves it to
// the earliest pending wake and records how much of the timeline was
// skipped rather than ticked.
type EventClock struct {
	now int64 // last fired cycle (-1 before the first event)

	// Events counts fired wakes (landed cycles actually simulated);
	// Skipped counts the cycles jumped over between them. Events+Skipped
	// equals the span of simulated time.
	Events  int64
	Skipped int64
}

// NewEventClock returns a clock positioned before cycle 0, so the first
// Advance(0) fires cycle 0 with nothing skipped.
func NewEventClock() *EventClock { return &EventClock{now: -1} }

// Now returns the last fired cycle (-1 before the first event).
func (e *EventClock) Now() int64 { return e.now }

// Advance fires the next event at cycle wake, which must be beyond the
// current cycle: the event timeline is monotone, a wake in the past means
// a domain under-reported its bound and the skipped window was not the
// no-op the contract promises.
func (e *EventClock) Advance(wake int64) {
	if wake <= e.now {
		panic("sched: event clock moved backwards")
	}
	e.Skipped += wake - e.now - 1
	e.Events++
	e.now = wake
}

// MinWake folds wake bounds, treating Never as the identity.
func MinWake(wakes ...int64) int64 {
	m := Never
	for _, w := range wakes {
		m = min(m, w)
	}
	return m
}
