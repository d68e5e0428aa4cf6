package memctrl

import (
	"fmt"

	"mil/internal/bitblock"
	"mil/internal/dram"
)

// PowerDownConfig enables the fast power-down extension the paper points
// at in Section 7.3 (Malladi et al. [60]): a rank with all banks precharged
// and no queued work enters power-down after IdleCycles, paying the lower
// IDD2P background current; waking costs XP cycles before its next command.
// The paper's evaluated systems run with this off (DDR4's lack of a fast
// power-down mode is why background energy dominates Figure 18(a)).
type PowerDownConfig struct {
	Enable     bool
	IdleCycles int // idle threshold before entering power-down
	XP         int // exit latency in DRAM cycles
}

// RetryConfig bounds the NACK-and-replay path. Zero fields select the
// defaults; the zero value is a fully usable configuration.
type RetryConfig struct {
	// MaxRetries is the replay budget per request; past it the request is
	// abandoned (counted in RetriesExhausted) rather than retried forever
	// (0 selects the default of 8).
	MaxRetries int
	// BackoffBase is the first replay delay in DRAM cycles, doubled per
	// retry of the same request (0 selects the default of 4).
	BackoffBase int
	// BackoffMax caps the per-request exponential backoff (0 selects the
	// default of 256).
	BackoffMax int
	// StormThreshold is the number of consecutive channel-wide failures
	// past which the controller assumes a persistent fault and quadruples
	// every backoff - the retry-storm guard (0 selects the default of 16).
	StormThreshold int
}

// maxRetries, backoffBase, backoffMax, stormThreshold apply the defaults.
func (r *RetryConfig) maxRetries() int {
	if r.MaxRetries <= 0 {
		return 8
	}
	return r.MaxRetries
}

func (r *RetryConfig) backoffBase() int {
	if r.BackoffBase <= 0 {
		return 4
	}
	return r.BackoffBase
}

func (r *RetryConfig) backoffMax() int {
	if r.BackoffMax <= 0 {
		return 256
	}
	return r.BackoffMax
}

func (r *RetryConfig) stormThreshold() int {
	if r.StormThreshold <= 0 {
		return 16
	}
	return r.StormThreshold
}

// Validate reports configuration errors.
func (r *RetryConfig) Validate() error {
	switch {
	case r.MaxRetries < 0:
		return fmt.Errorf("memctrl: max retries %d < 0", r.MaxRetries)
	case r.BackoffBase < 0 || r.BackoffMax < 0:
		return fmt.Errorf("memctrl: backoff %d/%d < 0", r.BackoffBase, r.BackoffMax)
	case r.BackoffMax > 0 && r.BackoffBase > r.BackoffMax:
		return fmt.Errorf("memctrl: backoff base %d > cap %d", r.BackoffBase, r.BackoffMax)
	case r.StormThreshold < 0:
		return fmt.Errorf("memctrl: storm threshold %d < 0", r.StormThreshold)
	}
	return nil
}

// Config parameterizes one channel's controller. The defaults mirror
// Table 2: 64-entry queues, write-drain watermarks 60/50, FR-FCFS with an
// open-page policy.
type Config struct {
	DRAM       dram.Config
	ReadQueue  int
	WriteQueue int
	DrainHigh  int
	DrainLow   int
	PowerDown  PowerDownConfig
	// Reliability configures the DDR4 RAS features (write CRC, CA parity)
	// whose NACKs drive the retry path. The zero value disables both.
	Reliability dram.Reliability
	// Retry bounds the replay of NACKed transfers.
	Retry RetryConfig
}

// DefaultConfig returns the Table 2 controller parameters over the given
// device config.
func DefaultConfig(d dram.Config) Config {
	return Config{DRAM: d, ReadQueue: 64, WriteQueue: 64, DrainHigh: 60, DrainLow: 50}
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if err := c.DRAM.Validate(); err != nil {
		return err
	}
	switch {
	case c.ReadQueue <= 0 || c.WriteQueue <= 0:
		return fmt.Errorf("memctrl: queue sizes %d/%d", c.ReadQueue, c.WriteQueue)
	case c.DrainHigh > c.WriteQueue || c.DrainLow < 0 || c.DrainLow >= c.DrainHigh:
		return fmt.Errorf("memctrl: drain watermarks %d/%d with queue %d", c.DrainHigh, c.DrainLow, c.WriteQueue)
	case c.PowerDown.Enable && (c.PowerDown.IdleCycles <= 0 || c.PowerDown.XP <= 0):
		return fmt.Errorf("memctrl: power-down idle %d / xp %d", c.PowerDown.IdleCycles, c.PowerDown.XP)
	}
	if err := c.Reliability.Validate(); err != nil {
		return err
	}
	return c.Retry.Validate()
}

// demandEscalationAge is the queueing age (DRAM cycles) past which the
// oldest demand read's bank work preempts ready prefetch hits.
const demandEscalationAge = 96

// rankPD tracks one rank's power-down state.
type rankPD struct {
	down      bool
	idleSince int64 // first cycle of the current idle stretch (-1 = active)
	wakeAt    int64 // rank unusable until this cycle after a wake-up
}

// inflightRead tracks a read whose data burst is still in flight.
type inflightRead struct {
	req  *Request
	done int64
}

// Controller schedules one DRAM channel.
type Controller struct {
	cfg    Config
	ch     *dram.Channel
	mem    Memory
	policy Policy
	phy    Phy

	rq []*Request
	wq []*Request

	writeMode  bool
	refDue     []int64
	refPending []bool
	pd         []rankPD

	inflight    []inflightRead
	deferred    []inflightRead     // forwarded/coalesced completions, fired on a later tick
	activeBurst []dram.BurstWindow // windows not yet past, for busy classification

	stats     *Stats
	now       int64
	started   bool
	acted     bool    // last Tick did observable work (event-core fast path)
	idleRun   int     // consecutive no-op Ticks since the last acting one
	wake      int64   // memoized NextWake scan result ...
	wakeValid bool    // ... valid until an enqueue or an acting Tick
	banksTmp  []int64 // scratch per-pass per-bank visited stamps
	bankStamp int64   // current stamp; bumped once per pass

	// la and colBlk are per-issue scratch, hoisted so the Lookahead box
	// and the transferred cache line never escape to the heap (the column
	// path is alloc-free; see TestTickSteadyStateZeroAllocObsDisabled).
	la     lookahead
	colBlk bitblock.Block

	// obs, when non-nil, carries the observability handles and the
	// idle-window run tracker. Nil keeps every instrumented site on a
	// single-branch zero-allocation path (see SetObs in obs.go).
	obs *ctrlObs

	consecFail int  // consecutive link failures, channel-wide (storm guard)
	inStorm    bool // currently past the storm threshold

	// epoch drives the optional per-epoch policy feedback (EpochObserver).
	// A policy that does not observe epochs leaves epoch.obs nil and the
	// column path pays one nil check per burst.
	epoch epochTracker

	// doneHook, when non-nil, observes every request completion in place
	// of the per-request OnDone closure (which still fires if set). The
	// replay driver uses it, with Request.Tag as the event identity, to
	// verify completion cycles without allocating a closure per event.
	doneHook func(req *Request, now int64)
}

// SetDoneHook installs a channel-wide completion observer. It fires for
// every request the controller completes (reads, writes, forwarded hits,
// and retry-exhausted abandons), after the request's own OnDone callback.
func (c *Controller) SetDoneHook(hook func(req *Request, now int64)) { c.doneHook = hook }

// fireDone completes a request through its callback and the channel hook.
func (c *Controller) fireDone(req *Request, now int64) {
	req.complete(now)
	if c.doneHook != nil {
		c.doneHook(req, now)
	}
}

// traceCmd records one issued command as an instant on the obs command
// track, when observability is attached.
func (c *Controller) traceCmd(now int64, cmd dram.Command) {
	if c.obs != nil {
		c.obs.traceIssue(now, cmd)
	}
}

// NewController wires a controller over a fresh channel model.
func NewController(cfg Config, mem Memory, policy Policy, phy Phy) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if mem == nil || policy == nil || phy == nil {
		return nil, fmt.Errorf("memctrl: nil memory, policy, or phy")
	}
	ch, err := dram.NewChannel(cfg.DRAM)
	if err != nil {
		return nil, err
	}
	c := &Controller{
		cfg: cfg, ch: ch, mem: mem, policy: policy, phy: phy,
		refDue:     make([]int64, cfg.DRAM.Geometry.Ranks),
		refPending: make([]bool, cfg.DRAM.Geometry.Ranks),
		pd:         make([]rankPD, cfg.DRAM.Geometry.Ranks),
		stats:      NewStats(),
		banksTmp:   make([]int64, cfg.DRAM.Geometry.Ranks*cfg.DRAM.Geometry.BankGroups*cfg.DRAM.Geometry.BanksPerGroup),
		// Queues and in-flight tracking are preallocated to their
		// steady-state bounds so the tick path (and the replay driver
		// built on it) never grows them mid-run.
		rq:          make([]*Request, 0, cfg.ReadQueue),
		wq:          make([]*Request, 0, cfg.WriteQueue),
		inflight:    make([]inflightRead, 0, cfg.ReadQueue),
		deferred:    make([]inflightRead, 0, cfg.ReadQueue+cfg.WriteQueue),
		activeBurst: make([]dram.BurstWindow, 0, cfg.ReadQueue),
	}
	if eo, ok := policy.(EpochObserver); ok {
		n := eo.EpochLength()
		if n <= 0 {
			return nil, fmt.Errorf("memctrl: policy %s epoch length %d <= 0", policy.Name(), n)
		}
		c.epoch.obs, c.epoch.every = eo, int64(n)
	}
	for r := range c.pd {
		c.pd[r].idleSince = -1
	}
	// Stagger per-rank refresh so ranks do not refresh in lockstep.
	step := int64(cfg.DRAM.Timing.REFI) / int64(cfg.DRAM.Geometry.Ranks)
	for r := range c.refDue {
		c.refDue[r] = int64(cfg.DRAM.Timing.REFI) - int64(r)*step
	}
	return c, nil
}

// Stats exposes the controller's counters.
func (c *Controller) Stats() *Stats { return c.stats }

// Channel exposes the underlying device model (read-only use).
func (c *Controller) Channel() *dram.Channel { return c.ch }

// QueueDepths returns the current read/write queue occupancy.
func (c *Controller) QueueDepths() (int, int) { return len(c.rq), len(c.wq) }

// Pending reports whether any work remains queued or in flight.
func (c *Controller) Pending() bool {
	return len(c.rq) > 0 || len(c.wq) > 0 || len(c.inflight) > 0 || len(c.deferred) > 0
}

// Enqueue admits a request, returning false when the target queue is full.
// Reads that hit a queued write are served by forwarding and complete on
// the next cycle without a DRAM access; writes to an already-queued line
// coalesce in place.
func (c *Controller) Enqueue(req *Request, now int64) bool {
	c.wakeValid = false // any arrival can create nearer work
	if req.Write {
		for _, w := range c.wq {
			if w.Line == req.Line {
				w.Data = req.Data // coalesce
				c.deferred = append(c.deferred, inflightRead{req: req, done: now + 1})
				return true
			}
		}
		if len(c.wq) >= c.cfg.WriteQueue {
			return false
		}
		req.Arrive = now
		c.wq = append(c.wq, req)
		if c.obs != nil {
			c.obs.wqPeak.Max(int64(len(c.wq)))
		}
		return true
	}
	for _, w := range c.wq {
		if w.Line == req.Line {
			c.stats.Forwards++
			// Completion is deferred to the next tick: synchronous
			// completion inside Enqueue would fire the caller's callback
			// before the caller has even recorded the request as pending.
			c.deferred = append(c.deferred, inflightRead{req: req, done: now + 1})
			return true
		}
	}
	if len(c.rq) >= c.cfg.ReadQueue {
		return false
	}
	// Prefetches are admitted only up to a fixed share of the queue so
	// they cannot crowd out (or add queueing delay to) demand misses.
	if !req.Demand {
		pf := 0
		for _, r := range c.rq {
			if !r.Demand {
				pf++
			}
		}
		if pf >= c.cfg.ReadQueue/4 {
			return false
		}
	}
	req.Arrive = now
	c.rq = append(c.rq, req)
	if c.obs != nil {
		c.obs.rqPeak.Max(int64(len(c.rq)))
	}
	return true
}

// Tick advances the controller one DRAM cycle: completes arrived reads,
// manages refresh, issues at most one command, and classifies the cycle for
// the Figure 5 statistics. Cycles must be presented monotonically.
func (c *Controller) Tick(now int64) {
	if c.started && now <= c.now {
		panic(fmt.Sprintf("memctrl: tick %d after %d", now, c.now))
	}
	c.now = now
	c.started = true

	acted := c.completeReads(now)

	for r := range c.refDue {
		if now >= c.refDue[r] && !c.refPending[r] {
			c.refPending[r] = true
			acted = true
		}
	}
	issued := false
	if c.cfg.PowerDown.Enable {
		issued = c.powerDownTick(now)
	}
	if !issued {
		issued = c.tryRefresh(now)
	}
	if !issued {
		issued = c.schedule(now)
	}
	c.acted = acted || issued
	// A no-op tick (nothing completed, flipped, or issued) leaves every
	// wake term unchanged, so a memoized scan stays valid across it. The
	// power-down machine mutates state without reporting, so its runs
	// always invalidate.
	if c.acted {
		c.idleRun = 0
	} else {
		c.idleRun++
	}
	if c.acted || c.cfg.PowerDown.Enable {
		c.wakeValid = false
	}

	c.classify(now)
	c.stats.Ticks++
	c.stats.RQOccupancySum += int64(len(c.rq))
	c.stats.WQOccupancySum += int64(len(c.wq))
}

// completeReads retires reads whose data has fully arrived, plus deferred
// forwarding/coalescing completions.
func (c *Controller) completeReads(now int64) bool {
	completed := false
	kept := c.inflight[:0]
	for _, f := range c.inflight {
		if f.done <= now {
			c.stats.ReadLatencySum += now - f.req.Arrive
			c.stats.ReadsCompleted++
			if f.req.Demand {
				c.stats.DemandLatencySum += now - f.req.Arrive
				c.stats.DemandReadsCompleted++
			}
			c.fireDone(f.req, now)
			completed = true
		} else {
			kept = append(kept, f)
		}
	}
	c.inflight = kept

	keptD := c.deferred[:0]
	for _, f := range c.deferred {
		if f.done <= now {
			c.fireDone(f.req, now)
			completed = true
		} else {
			keptD = append(keptD, f)
		}
	}
	c.deferred = keptD
	return completed
}

// rankBlocked reports whether new activity should avoid a rank because a
// refresh is trying to drain it or it is powered down / waking up.
func (c *Controller) rankBlocked(rank int) bool {
	return c.refPending[rank] || c.pd[rank].down || c.pd[rank].wakeAt > c.now
}

// powerDownTick advances the power-down state machine: a rank with nothing
// queued for it starts an idle clock; past the threshold its open rows are
// precharged (consuming the cycle's command slot) and it enters power-down.
// Ranks with arriving work pay the tXP wake latency. Returns true if it
// issued a command this cycle.
func (c *Controller) powerDownTick(now int64) bool {
	g := c.cfg.DRAM.Geometry
	var needed uint32
	for _, req := range c.rq {
		needed |= 1 << req.loc.Rank
	}
	for _, req := range c.wq {
		needed |= 1 << req.loc.Rank
	}
	for r := range c.pd {
		pd := &c.pd[r]
		want := needed>>r&1 == 1 || c.refPending[r]
		if pd.down {
			c.stats.PowerDownCycles++
			if want {
				pd.down = false
				pd.wakeAt = now + int64(c.cfg.PowerDown.XP)
				pd.idleSince = -1
				c.stats.PowerDownExits++
				if c.obs != nil {
					c.obs.pdExits.Inc()
				}
			}
			continue
		}
		if pd.wakeAt > now {
			continue // waking up
		}
		if want {
			pd.idleSince = -1
			continue
		}
		if pd.idleSince < 0 {
			pd.idleSince = now
		}
		if now-pd.idleSince < int64(c.cfg.PowerDown.IdleCycles) {
			continue
		}
		// Idle past the threshold: close any open rows, then power down.
		for bg := 0; bg < g.BankGroups; bg++ {
			for b := 0; b < g.BanksPerGroup; b++ {
				if _, open := c.ch.OpenRow(r, bg, b); !open {
					continue
				}
				cmd := dram.Command{Kind: dram.PRE, Rank: r, Group: bg, Bank: b}
				if c.ch.EarliestIssue(cmd, now) == now {
					c.ch.Issue(cmd, now)
					c.traceCmd(now, cmd)
					c.stats.Precharges++
					return true
				}
				return false // constraint-bound; try again next cycle
			}
		}
		pd.down = true
		c.stats.PowerDownCycles++
		if c.obs != nil {
			c.obs.pdEntries.Inc()
		}
	}
	return false
}

// tryRefresh makes progress on pending refreshes: precharging open banks of
// the refreshing rank, then issuing REF. Returns true if it consumed the
// cycle's command slot.
func (c *Controller) tryRefresh(now int64) bool {
	g := c.cfg.DRAM.Geometry
	for r := range c.refPending {
		if !c.refPending[r] {
			continue
		}
		if c.pd[r].down || c.pd[r].wakeAt > now {
			continue // the power-down logic is waking the rank first
		}
		allClosed := true
		for bg := 0; bg < g.BankGroups; bg++ {
			for b := 0; b < g.BanksPerGroup; b++ {
				if _, open := c.ch.OpenRow(r, bg, b); !open {
					continue
				}
				allClosed = false
				cmd := dram.Command{Kind: dram.PRE, Rank: r, Group: bg, Bank: b}
				if c.ch.EarliestIssue(cmd, now) == now {
					c.ch.Issue(cmd, now)
					c.traceCmd(now, cmd)
					c.stats.Precharges++
					return true
				}
			}
		}
		if allClosed {
			cmd := dram.Command{Kind: dram.REF, Rank: r}
			if c.ch.EarliestIssue(cmd, now) == now {
				c.ch.Issue(cmd, now)
				c.traceCmd(now, cmd)
				c.stats.Refreshes++
				c.refPending[r] = false
				c.refDue[r] += int64(c.cfg.DRAM.Timing.REFI)
				return true
			}
		}
	}
	return false
}

// schedule runs FR-FCFS over the active queue and issues at most one
// command; it reports whether anything was issued.
func (c *Controller) schedule(now int64) bool {
	// Write-drain mode transitions (Section 4.6, Table 2 watermarks).
	if len(c.wq) >= c.cfg.DrainHigh {
		c.writeMode = true
	} else if c.writeMode && len(c.wq) <= c.cfg.DrainLow {
		c.writeMode = false
	}
	active, write := c.rq, false
	if c.writeMode || (len(c.rq) == 0 && len(c.wq) > 0) {
		active, write = c.wq, true
	}
	if len(active) == 0 {
		return false
	}

	if write {
		if c.readyHitPass(active, true, now, keepAll) {
			return true
		}
		return c.fcfsPass(active, now, keepAll)
	}
	// Demand reads outrank prefetches. Normally prefetch row hits may still
	// slip in ahead of demand ACT/PRE work (they keep the streams timely),
	// but once any demand has aged past the escalation threshold, demand
	// bank work preempts them - otherwise an endless supply of ready
	// prefetch hits can starve the misses cores are actually blocked on.
	demandFirst := false
	for _, r := range active {
		if r.Demand {
			demandFirst = now-r.Arrive > demandEscalationAge
			break
		}
	}
	if c.readyHitPass(active, false, now, keepDemand) {
		return true
	}
	if demandFirst {
		if c.fcfsPass(active, now, keepDemand) {
			return true
		}
		if c.readyHitPass(active, false, now, keepPrefetch) {
			return true
		}
	} else {
		if c.readyHitPass(active, false, now, keepPrefetch) {
			return true
		}
		if c.fcfsPass(active, now, keepDemand) {
			return true
		}
	}
	return c.fcfsPass(active, now, keepPrefetch)
}

// candidate filters for the scheduler passes; a small enum instead of a
// predicate closure keeps the per-request check branch-predictable and
// inlineable on the hottest loops in the simulator.
const (
	keepAll = iota
	keepDemand
	keepPrefetch
)

// skipReq reports whether a pass with the given filter ignores req.
func skipReq(keep int, req *Request) bool {
	return (keep == keepDemand && !req.Demand) || (keep == keepPrefetch && req.Demand)
}

// readyHitPass issues the oldest matching column command whose row is open
// and whose constraints are met right now. keep filters candidates.
func (c *Controller) readyHitPass(active []*Request, write bool, now int64, keep int) bool {
	for i, req := range active {
		if skipReq(keep, req) {
			continue
		}
		if req.retryAt > now || c.rankBlocked(req.loc.Rank) {
			continue
		}
		if row, open := c.ch.OpenRow(req.loc.Rank, req.loc.Group, req.loc.Bank); open && row == req.loc.Row {
			if c.ch.EarliestIssue(c.probeCAS(req, write), now) == now {
				c.issueColumn(req, i, write, now)
				return true
			}
		}
	}
	return false
}

// fcfsPass walks oldest-first issuing the ACT or PRE the request needs, at
// most one action per bank so a younger conflict cannot close a row an
// older request still needs.
func (c *Controller) fcfsPass(active []*Request, now int64, keep int) bool {
	c.bankStamp++
	for _, req := range active {
		if skipReq(keep, req) {
			continue
		}
		bankID := (req.loc.Rank*c.cfg.DRAM.Geometry.BankGroups+req.loc.Group)*c.cfg.DRAM.Geometry.BanksPerGroup + req.loc.Bank
		if c.banksTmp[bankID] == c.bankStamp {
			continue
		}
		c.banksTmp[bankID] = c.bankStamp
		if req.retryAt > now || c.rankBlocked(req.loc.Rank) {
			continue
		}
		row, open := c.ch.OpenRow(req.loc.Rank, req.loc.Group, req.loc.Bank)
		switch {
		case open && row == req.loc.Row:
			// A hit that was not ready in the first pass; nothing to do.
		case open:
			cmd := dram.Command{Kind: dram.PRE, Rank: req.loc.Rank, Group: req.loc.Group, Bank: req.loc.Bank}
			if c.ch.EarliestIssue(cmd, now) == now {
				c.ch.Issue(cmd, now)
				c.traceCmd(now, cmd)
				c.stats.Precharges++
				return true
			}
		default:
			cmd := dram.Command{Kind: dram.ACT, Rank: req.loc.Rank, Group: req.loc.Group, Bank: req.loc.Bank, Row: req.loc.Row}
			if c.ch.EarliestIssue(cmd, now) == now {
				c.ch.Issue(cmd, now)
				c.traceCmd(now, cmd)
				c.stats.Activates++
				return true
			}
		}
	}
	return false
}

// probeCAS builds the baseline-shaped column command used for readiness
// checks. Extra codec latency can only relax the issue time (the data slot
// moves later), so a probe that is ready implies the coded command is too.
func (c *Controller) probeCAS(req *Request, write bool) dram.Command {
	kind := dram.RD
	if write {
		kind = dram.WR
	}
	return dram.Command{
		Kind: kind, Rank: req.loc.Rank, Group: req.loc.Group,
		Bank: req.loc.Bank, Row: req.loc.Row, Beats: 8,
	}
}

// lookahead implements Lookahead over the controller's live queue state.
type lookahead struct {
	c   *Controller
	now int64
}

// ColumnReadyWithin implements Lookahead: it counts queued reads and writes
// whose row is already open and whose constraints resolve within x cycles,
// including the command being scheduled (Section 5.1's rdyX comparators).
func (l lookahead) ColumnReadyWithin(x int) int {
	n := 0
	scan := func(reqs []*Request, write bool) {
		for _, req := range reqs {
			if req.retryAt > l.now {
				continue // backing off; cannot become ready in the window
			}
			row, open := l.c.ch.OpenRow(req.loc.Rank, req.loc.Group, req.loc.Bank)
			if !open || row != req.loc.Row {
				continue
			}
			if l.c.ch.EarliestIssue(l.c.probeCAS(req, write), l.now) <= l.now+int64(x) {
				n++
			}
		}
	}
	scan(l.c.rq, false)
	scan(l.c.wq, true)
	return n
}

// epochTracker counts issued bursts toward the policy's next epoch
// boundary and remembers the cumulative stat totals at the last one, so
// each delivery is a cheap subtraction off counters the column path
// maintains anyway.
type epochTracker struct {
	obs    EpochObserver
	every  int64
	bursts int64      // bursts issued since the last boundary
	mark   EpochStats // cumulative totals at the last boundary
}

// epochTick advances the per-epoch feedback channel after one issued
// burst (success or failure alike) and delivers the epoch's stat deltas
// at each boundary. Policies without an EpochObserver cost one nil check
// here; TestEpochFeedbackZeroCostWhenDisabled pins the path at 0
// allocs/op in both cases.
func (c *Controller) epochTick(now int64) {
	if c.epoch.obs == nil {
		return
	}
	c.epoch.bursts++
	if c.epoch.bursts < c.epoch.every {
		return
	}
	c.epoch.bursts = 0
	s := c.stats
	cur := EpochStats{
		Bursts:    s.Reads + s.Writes,
		Zeros:     s.Zeros,
		CostUnits: s.CostUnits,
		Beats:     s.BurstBeats,
		Retries:   s.WriteRetries + s.ReadRetries + s.RetriesExhausted,
	}
	delta := EpochStats{
		Bursts:    cur.Bursts - c.epoch.mark.Bursts,
		Zeros:     cur.Zeros - c.epoch.mark.Zeros,
		CostUnits: cur.CostUnits - c.epoch.mark.CostUnits,
		Beats:     cur.Beats - c.epoch.mark.Beats,
		Retries:   cur.Retries - c.epoch.mark.Retries,
	}
	c.epoch.mark = cur
	if c.obs != nil {
		c.obs.policyEpochs.Inc()
	}
	c.epoch.obs.ObserveEpoch(now, delta)
}

// issueColumn runs the coding decision, issues the column command, moves
// the data, and records all statistics. idx is the request's position in
// the active queue.
//
// On a faulty link the transfer can come back NACKed (device write-CRC or
// CA parity via ALERT_n, or a controller-side read decode failure); the
// burst's bus time and energy are then sunk cost, the request stays queued
// in age order, and handleFailure schedules its replay.
func (c *Controller) issueColumn(req *Request, idx int, write bool, now int64) {
	var dataPtr *bitblock.Block
	if write {
		dataPtr = &req.Data
	}
	c.la = lookahead{c: c, now: now}
	codec := c.policy.Choose(write, dataPtr, &c.la)

	kind := dram.RD
	extraBeats := 0
	if write {
		kind = dram.WR
		extraBeats = c.cfg.Reliability.ExtraWriteBeats()
	}
	cmd := dram.Command{
		Kind: kind, Rank: req.loc.Rank, Group: req.loc.Group, Bank: req.loc.Bank,
		Row: req.loc.Row, Beats: codec.Beats() + extraBeats, ExtraCAS: codec.ExtraLatency(),
	}
	info := c.ch.Issue(cmd, now)

	blk := &c.colBlk
	if write {
		*blk = req.Data
	} else {
		*blk = c.mem.ReadLine(req.Line)
	}
	res := c.phy.Transmit(codec, blk, write)
	if c.obs != nil {
		c.obs.traceIssue(now, cmd)
		c.obs.traceBurst(info.Window, codec.Name(), res.Beats, res.Zeros)
	}

	c.stats.Zeros += int64(res.Zeros)
	c.stats.CostUnits += int64(res.CostUnits)
	c.stats.BurstBeats += int64(res.Beats)
	c.stats.BusyCycles += info.Window.Cycles()
	c.stats.CodecBursts[codec.Name()]++
	c.stats.CRCBeats += int64(extraBeats)
	c.stats.BitErrors += int64(res.BitErrors)
	if res.Silent {
		c.stats.SilentErrors++
	}
	if info.PrevEnd >= 0 {
		gap := info.Window.Start - info.PrevEnd
		c.stats.GapHist.Add(gap)
		c.stats.GapPairs++
		if gap == 0 {
			c.stats.BackToBack++
		}
		slack := info.Window.Start - (info.PrevEnd + info.Anchor)
		if slack < 0 {
			slack = 0
		}
		c.stats.SlackHist.Add(slack)
	}
	if write {
		c.stats.Writes++
	} else {
		c.stats.Reads++
		if req.Demand {
			c.stats.DemandReads++
		}
	}
	c.activeBurst = append(c.activeBurst, info.Window)

	if fb, ok := c.policy.(ReliabilityFeedback); ok {
		fb.RecordBurst(codec.Name(), write, res.Failed())
	}

	if res.Failed() {
		c.handleFailure(req, idx, write, &res, info.Window.End)
		c.epochTick(now)
		return
	}
	c.consecFail = 0
	c.inStorm = false

	if write {
		// The device accepted the transfer; commit what actually arrived
		// (silent corruption is stored, exactly as in hardware).
		c.mem.WriteLine(req.Line, res.Arrived)
		c.stats.WritesCompleted++
		c.wq = removeAt(c.wq, idx)
		c.fireDone(req, now)
	} else {
		c.rq = removeAt(c.rq, idx)
		c.inflight = append(c.inflight, inflightRead{req: req, done: info.Window.End})
	}
	c.epochTick(now)
}

// handleFailure processes a NACKed transfer: it classifies the failure,
// charges the wasted burst, and either schedules a replay (the request
// stays queued in age order with a capped exponential backoff, gated by
// retryAt) or abandons the request once its retry budget is spent. A run of
// consecutive channel-wide failures trips the retry-storm guard, which
// quadruples backoff until a transfer succeeds.
func (c *Controller) handleFailure(req *Request, idx int, write bool, res *PhyResult, burstEnd int64) {
	detectAt := burstEnd
	switch {
	case res.CAError:
		c.stats.CAParityAlerts++
		detectAt += int64(c.cfg.Reliability.CAAlertCycles)
	case res.CRCError:
		c.stats.WriteCRCAlerts++
		detectAt += int64(c.cfg.Reliability.CRCAlertCycles)
	default: // read decode failure: the controller itself rejects the burst
		c.stats.ReadDecodeFailures++
	}
	c.stats.RetryBeats += int64(res.Beats)
	c.stats.RetryCostUnits += int64(res.CostUnits)

	c.consecFail++
	if !c.inStorm && c.consecFail >= c.cfg.Retry.stormThreshold() {
		c.inStorm = true
		c.stats.RetryStorms++
	}

	if req.retries >= c.cfg.Retry.maxRetries() {
		// Budget spent: abandon rather than retry forever. The request
		// completes so the core is not wedged; the data is lost (stale
		// memory for writes), which RetriesExhausted makes visible.
		c.stats.RetriesExhausted++
		if c.obs != nil {
			c.obs.retryExhausted.Inc()
		}
		if write {
			c.stats.WritesCompleted++
			c.wq = removeAt(c.wq, idx)
		} else {
			c.stats.ReadsCompleted++
			c.stats.ReadLatencySum += c.now - req.Arrive
			if req.Demand {
				c.stats.DemandLatencySum += c.now - req.Arrive
				c.stats.DemandReadsCompleted++
			}
			c.rq = removeAt(c.rq, idx)
		}
		c.fireDone(req, c.now)
		return
	}

	backoff := int64(c.cfg.Retry.backoffBase()) << req.retries
	if limit := int64(c.cfg.Retry.backoffMax()); backoff > limit {
		backoff = limit
	}
	if c.inStorm {
		backoff *= 4
	}
	req.retries++
	req.retryAt = detectAt + backoff
	if c.obs != nil {
		c.obs.retryReplays.Inc()
	}
	if write {
		c.stats.WriteRetries++
	} else {
		c.stats.ReadRetries++
	}
}

// classify attributes the cycle to busy / idle-with-pending / idle-empty
// for the Figure 5 breakdown.
func (c *Controller) classify(now int64) {
	busy := false
	kept := c.activeBurst[:0]
	for _, w := range c.activeBurst {
		if w.End <= now {
			continue
		}
		kept = append(kept, w)
		if w.Start <= now {
			busy = true
		}
	}
	c.activeBurst = kept
	if c.obs != nil {
		if busy {
			c.obs.busyAt(now)
		} else {
			c.obs.idleAt(now)
		}
	}
	switch {
	case busy:
		// counted via BurstBeats/BusyCycles already; nothing extra here
	case len(c.rq)+len(c.wq) > 0:
		c.stats.IdlePendingCycles++
	default:
		c.stats.IdleEmptyCycles++
	}
}

// removeAt deletes element i preserving order (FCFS age order matters).
func removeAt(reqs []*Request, i int) []*Request {
	copy(reqs[i:], reqs[i+1:])
	return reqs[:len(reqs)-1]
}
