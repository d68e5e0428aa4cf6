// Package cpu provides the core timing models of Table 2: in-order
// 4-way-multithreaded Niagara-like cores for the microserver system and
// 3-issue out-of-order cores for the mobile system. Cores execute abstract
// instruction streams (compute bursts interleaved with loads and stores)
// against the cache hierarchy; the models capture what matters to the
// memory system: how much latency each thread can hide and how many misses
// it keeps in flight.
package cpu

import (
	"fmt"

	"mil/internal/cache"
	"mil/internal/obs"
	"mil/internal/sched"
)

// OpKind classifies stream operations.
type OpKind int

// Operation kinds.
const (
	// OpCompute executes N non-memory instructions.
	OpCompute OpKind = iota
	// OpLoad reads the byte address Addr.
	OpLoad
	// OpStore writes the byte address Addr.
	OpStore
)

// Op is one operation of a thread's dynamic instruction stream.
type Op struct {
	Kind OpKind
	N    int64 // instruction count for OpCompute
	Addr int64 // byte address for OpLoad/OpStore
}

// Stream produces a thread's dynamic instruction stream.
type Stream interface {
	// Next returns the next operation, or ok=false when the thread is done.
	Next() (op Op, ok bool)
}

// Config describes the processor.
type Config struct {
	Cores          int
	ThreadsPerCore int
	// OutOfOrder lets threads run past load misses (mobile cores); in-order
	// threads block on every miss (Niagara threads hide latency through
	// multithreading instead).
	OutOfOrder bool
	// IssueWidth is the per-thread non-memory IPC.
	IssueWidth int
	// MaxOutstanding caps a thread's in-flight load misses when OutOfOrder.
	MaxOutstanding int
}

// ServerConfig returns the Niagara-like core complex of Table 2: 8 in-order
// cores, 4 threads each, issue width 2.
func ServerConfig() Config {
	return Config{Cores: 8, ThreadsPerCore: 4, OutOfOrder: false, IssueWidth: 2, MaxOutstanding: 1}
}

// MobileConfig returns the Snapdragon-like core complex of Table 2: 8
// out-of-order single-threaded cores, issue width 3.
func MobileConfig() Config {
	return Config{Cores: 8, ThreadsPerCore: 1, OutOfOrder: true, IssueWidth: 3, MaxOutstanding: 4}
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	switch {
	case c.Cores <= 0 || c.ThreadsPerCore <= 0:
		return fmt.Errorf("cpu: %d cores x %d threads", c.Cores, c.ThreadsPerCore)
	case c.IssueWidth <= 0:
		return fmt.Errorf("cpu: issue width %d", c.IssueWidth)
	case c.OutOfOrder && c.MaxOutstanding <= 0:
		return fmt.Errorf("cpu: out-of-order with %d outstanding misses", c.MaxOutstanding)
	}
	return nil
}

// Threads returns the total hardware thread count.
func (c *Config) Threads() int { return c.Cores * c.ThreadsPerCore }

// thread is one hardware context.
type thread struct {
	core     int
	stream   Stream
	readyAt  int64
	blocked  bool // waiting on a fill (or a full miss window)
	finished bool
	pending  *Op // op rejected with Retry, to reissue
	inflight int // outstanding load misses (OoO)
	doneAt   int64
}

// Processor drives all threads against the hierarchy.
type Processor struct {
	cfg     Config
	hier    *cache.Hierarchy
	threads []*thread
	now     int64
	ticked  int64 // last cycle presented to Tick (-1 before the first)

	Retired   int64 // instructions completed (all threads)
	LoadOps   int64
	StoreOps  int64
	StallTics int64 // thread-cycles spent blocked

	// threadBlocks, when attached via SetObs, counts transitions into the
	// blocked state (a core wedged on a demand miss). Nil is a no-op.
	threadBlocks *obs.Counter
	// blocks is the always-on mirror of threadBlocks, kept for the trace
	// record/replay layer (DESIGN.md §5.11) so a replayed run can report
	// the counter without the processor present.
	blocks int64
}

// ThreadBlocks reports the number of transitions into the blocked state.
func (p *Processor) ThreadBlocks() int64 { return p.blocks }

// SetObs attaches the observability layer. Nil-safe: a disabled Obs
// leaves the processor on its zero-cost path.
func (p *Processor) SetObs(o *obs.Obs) {
	if !o.Enabled() {
		return
	}
	p.threadBlocks = o.Counter("cpu_thread_blocks_total")
}

// NewProcessor builds a processor whose thread i runs streams[i]. The
// stream slice length must equal cfg.Threads().
func NewProcessor(cfg Config, hier *cache.Hierarchy, streams []Stream) (*Processor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if hier == nil {
		return nil, fmt.Errorf("cpu: nil hierarchy")
	}
	if len(streams) != cfg.Threads() {
		return nil, fmt.Errorf("cpu: %d streams for %d threads", len(streams), cfg.Threads())
	}
	p := &Processor{cfg: cfg, hier: hier, ticked: -1}
	for i, s := range streams {
		p.threads = append(p.threads, &thread{core: i / cfg.ThreadsPerCore, stream: s})
	}
	return p, nil
}

// Done reports whether every thread has drained its stream.
func (p *Processor) Done() bool {
	for _, t := range p.threads {
		if !t.finished {
			return false
		}
	}
	return true
}

// FinishTimes returns each thread's completion cycle (valid once Done).
func (p *Processor) FinishTimes() []int64 {
	out := make([]int64, len(p.threads))
	for i, t := range p.threads {
		out[i] = t.doneAt
	}
	return out
}

// NextWake returns a lower bound on the next CPU cycle at which a thread
// can step (the internal/sched contract): the earliest readyAt over
// runnable threads. Blocked threads wake via cache fills, which happen on
// cycles the event loop lands on anyway; finished threads never wake.
func (p *Processor) NextWake(now int64) int64 {
	w := sched.Never
	for _, t := range p.threads {
		if t.finished || t.blocked {
			continue
		}
		if t.readyAt <= now {
			return now + 1
		}
		w = min(w, t.readyAt)
	}
	return w
}

// SkipTo charges the stall cycles the skipped window (ticked, now) would
// have accumulated: one per blocked unfinished thread per skipped cycle.
// It must run before the cycle's fills unblock threads - in the per-cycle
// loop those threads were still blocked throughout the window.
func (p *Processor) SkipTo(now int64) {
	n := now - p.ticked - 1
	if n <= 0 {
		return
	}
	for _, t := range p.threads {
		if !t.finished && t.blocked {
			p.StallTics += n
		}
	}
}

// Tick advances every thread one CPU cycle.
func (p *Processor) Tick(now int64) {
	p.now = now
	p.ticked = now
	for _, t := range p.threads {
		if t.finished {
			continue
		}
		if t.blocked {
			p.StallTics++
			continue
		}
		if t.readyAt > now {
			continue
		}
		p.step(t, now)
	}
}

// step executes (or retries) one operation for thread t.
func (p *Processor) step(t *thread, now int64) {
	var op Op
	if t.pending != nil {
		op = *t.pending
		t.pending = nil
	} else {
		var ok bool
		op, ok = t.stream.Next()
		if !ok {
			t.finished = true
			t.doneAt = now
			return
		}
	}

	switch op.Kind {
	case OpCompute:
		n := op.N
		if n < 1 {
			n = 1
		}
		cycles := (n + int64(p.cfg.IssueWidth) - 1) / int64(p.cfg.IssueWidth)
		t.readyAt = now + cycles
		p.Retired += n

	case OpLoad:
		res, lat := p.hier.Access(t.core, op.Addr, false, p.loadDone(t))
		switch res {
		case cache.Hit:
			t.readyAt = now + lat
			p.Retired++
			p.LoadOps++
		case cache.Miss:
			p.Retired++
			p.LoadOps++
			if p.cfg.OutOfOrder {
				t.inflight++
				if t.inflight >= p.cfg.MaxOutstanding {
					t.blocked = true // miss window full: stall until one returns
					p.blocks++
					p.threadBlocks.Inc()
				} else {
					t.readyAt = now + 1 // keep running under the miss
				}
			} else {
				t.blocked = true
				p.blocks++
				p.threadBlocks.Inc()
			}
		case cache.Retry:
			t.pending = &op
			t.readyAt = now + 1
		}

	case OpStore:
		res, lat := p.hier.Access(t.core, op.Addr, true, nil)
		switch res {
		case cache.Hit:
			t.readyAt = now + lat
			p.Retired++
			p.StoreOps++
		case cache.Miss:
			// Write-allocate miss; the store buffer hides the fill.
			t.readyAt = now + 1
			p.Retired++
			p.StoreOps++
		case cache.Retry:
			t.pending = &op
			t.readyAt = now + 1
		}

	default:
		panic(fmt.Sprintf("cpu: unknown op kind %d", op.Kind))
	}
}

// loadDone builds the fill callback for a thread's load miss.
func (p *Processor) loadDone(t *thread) func() {
	return func() {
		if p.cfg.OutOfOrder {
			if t.inflight > 0 {
				t.inflight--
			}
			if t.blocked && t.inflight < p.cfg.MaxOutstanding {
				t.blocked = false
				t.readyAt = p.now + 1
			}
			return
		}
		t.blocked = false
		t.readyAt = p.now + 1
	}
}
