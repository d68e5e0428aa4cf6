package memctrl

import (
	"mil/internal/dram"
	"mil/internal/obs"
)

// ctrlObs bundles the controller's pre-resolved observability handles
// plus the idle-run tracker behind the data-bus idle-window histogram.
// A controller with observability disabled keeps a nil *ctrlObs and pays
// exactly one predictable branch per instrumented site (verified by the
// AllocsPerRun test in obs_test.go).
//
// The idle-run tracker turns the per-cycle busy/idle classification
// (classify and SkipUntil's bulk equivalent) into window lengths: an
// idle run opens on the first idle cycle after a busy one and closes on
// the next busy cycle (or at flush), at which point its length lands in
// the histogram. Because every classified cycle is exactly one of
// busy/idle, the histogram's sample sum reconciles exactly with the
// Figure-5 idle counters: Sum == IdlePendingCycles + IdleEmptyCycles.
type ctrlObs struct {
	idleHist       *obs.Hist
	rqPeak         *obs.Gauge
	wqPeak         *obs.Gauge
	retryReplays   *obs.Counter
	retryExhausted *obs.Counter
	pdEntries      *obs.Counter
	pdExits        *obs.Counter
	wakeFastpath   *obs.Counter
	wakeMemoized   *obs.Counter
	wakeFullScan   *obs.Counter
	// policyEpochs counts epoch-feedback deliveries. Created only for
	// controllers whose policy observes epochs (see SetObs) so the
	// metrics CSV of every pre-existing scheme stays byte-identical;
	// Inc is nil-safe, so epochTick bumps it unconditionally.
	policyEpochs *obs.Counter

	cmdTrack *obs.Track // per-channel DRAM command instants
	busTrack *obs.Track // per-channel data-bus burst/idle slices

	inIdle    bool
	idleStart int64
}

func newCtrlObs(o *obs.Obs) *ctrlObs {
	return &ctrlObs{
		idleHist:       o.Hist("bus_idle_window_cycles", obs.IdleWindowEdges...),
		rqPeak:         o.Gauge("memctrl_rq_peak"),
		wqPeak:         o.Gauge("memctrl_wq_peak"),
		retryReplays:   o.Counter("retry_replays_total"),
		retryExhausted: o.Counter("retry_exhausted_total"),
		pdEntries:      o.Counter("powerdown_entries_total"),
		pdExits:        o.Counter("powerdown_exits_total"),
		wakeFastpath:   o.Counter("wake_scan_fastpath_total"),
		wakeMemoized:   o.Counter("wake_scan_memoized_total"),
		wakeFullScan:   o.Counter("wake_scan_full_total"),
	}
}

// bindTracks registers the controller's trace timelines, named by
// channel index. Tracks run in the DRAM clock domain (2 CPU cycles per
// tick under the standard 2:1 clock).
func (co *ctrlObs) bindTracks(o *obs.Obs, id int, cpuPerDRAM int64) {
	if o == nil || o.Trace == nil {
		return
	}
	name := [...]string{"ch0", "ch1", "ch2", "ch3"}
	prefix := "ch?"
	if id < len(name) {
		prefix = name[id]
	}
	co.cmdTrack = o.NewTrack(prefix+" cmd", cpuPerDRAM)
	co.busTrack = o.NewTrack(prefix+" bus", cpuPerDRAM)
}

// busyAt marks cycle t busy: it closes any open idle run ending at t-1,
// recording the run's length and its trace slice.
func (co *ctrlObs) busyAt(t int64) {
	if !co.inIdle {
		return
	}
	co.inIdle = false
	co.idleHist.Add(t - co.idleStart)
	co.busTrack.Slice("idle", co.idleStart, t, obs.Args{})
}

// idleAt marks cycle t idle, opening a run if none is open.
func (co *ctrlObs) idleAt(t int64) {
	if !co.inIdle {
		co.inIdle = true
		co.idleStart = t
	}
}

// flush closes a trailing idle run at the final simulated cycle `now`
// (the run covers [idleStart, now]).
func (co *ctrlObs) flush(now int64) {
	if !co.inIdle {
		return
	}
	co.inIdle = false
	co.idleHist.Add(now - co.idleStart + 1)
	co.busTrack.Slice("idle", co.idleStart, now+1, obs.Args{})
}

// traceIssue records one issued command as an instant on the command
// track, with bank-address args (and burst args for column commands).
func (co *ctrlObs) traceIssue(now int64, cmd dram.Command) {
	if co.cmdTrack == nil {
		return
	}
	args := obs.Args{
		HasLoc: true, Rank: int32(cmd.Rank), Group: int32(cmd.Group),
		Bank: int32(cmd.Bank), Row: int32(cmd.Row),
	}
	co.cmdTrack.Instant(cmd.Kind.String(), now, args)
}

// traceBurst records a column command's data-bus occupancy as a slice on
// the bus track, annotated with the chosen codec.
func (co *ctrlObs) traceBurst(w dram.BurstWindow, codecName string, beats, zeros int) {
	if co.busTrack == nil {
		return
	}
	co.busTrack.Slice("burst", w.Start, w.End, obs.Args{
		HasData: true, Beats: int32(beats), Zeros: int32(zeros), Codec: codecName,
	})
}

// SetObs attaches the observability layer: controller-level metrics and
// the underlying channel's command counters (System.SetObs also binds the
// per-channel trace tracks). Call before the first Tick. Nil-safe: a
// disabled Obs leaves the controller on its zero-cost path.
func (c *Controller) SetObs(o *obs.Obs) {
	if !o.Enabled() {
		return
	}
	c.obs = newCtrlObs(o)
	if c.epoch.obs != nil {
		c.obs.policyEpochs = o.Counter("policy_epochs_total")
	}
	c.ch.SetObs(o)
}

// FlushObs finalizes end-of-run observability state: the trailing idle
// run, and the peak-occupancy gauges' final check. Safe to call with
// observability disabled.
func (c *Controller) FlushObs() {
	if c.obs == nil {
		return
	}
	c.obs.flush(c.now)
}

// SetObs attaches the observability layer to every channel (see
// Controller.SetObs).
func (s *System) SetObs(o *obs.Obs) {
	if !o.Enabled() {
		return
	}
	for i, c := range s.ctrls {
		c.SetObs(o)
		c.obs.bindTracks(o, i, 2)
	}
}

// FlushObs finalizes end-of-run observability state on every channel.
func (s *System) FlushObs() {
	for _, c := range s.ctrls {
		c.FlushObs()
	}
}
