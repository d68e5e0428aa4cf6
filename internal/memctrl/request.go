package memctrl

import "mil/internal/bitblock"

// Request is one cache-block transfer demanded of the memory system.
type Request struct {
	Line   int64 // cache-line index (byte address >> 6)
	Write  bool
	Data   bitblock.Block // payload for writes
	Arrive int64          // DRAM cycle the request entered the controller
	Stream int            // originating hardware thread, for statistics
	Demand bool           // false for prefetches
	OnDone func(now int64)
	// Tag is caller-owned scratch the controller never reads or writes.
	// The replay driver stores the trace event index here so the
	// controller-level completion hook (SetDoneHook) can verify completion
	// cycles without a per-request closure.
	Tag    int
	loc    Location
	mapped bool // loc computed (requests are re-enqueued on backpressure)

	retries int   // failed link transfers replayed so far
	retryAt int64 // ineligible for scheduling before this cycle (backoff)
}

// Retries returns how many times this request's burst was replayed after a
// link failure.
func (r *Request) Retries() int { return r.retries }

// complete invokes the completion callback, if any.
func (r *Request) complete(now int64) {
	if r.OnDone != nil {
		r.OnDone(now)
	}
}
