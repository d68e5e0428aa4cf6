package dram

import (
	"fmt"

	"mil/internal/obs"
)

// infinitePast initializes "last event" registers so constraints are
// trivially met at time zero.
const infinitePast = int64(-1) << 40

// bankState tracks one bank's row buffer and earliest-allowed times.
type bankState struct {
	open    bool
	row     int
	nextACT int64 // honors tRC, tRP, and refresh
	nextPRE int64 // honors tRAS, tRTP, tWR
	nextCAS int64 // honors tRCD
}

// groupState tracks bank-group-scoped constraints (the DDR4 additions).
type groupState struct {
	nextACT int64 // tRRD_L
	nextRD  int64 // tCCD_L, tWTR_L
	nextWR  int64 // tCCD_L
}

// rankState tracks rank-scoped constraints.
type rankState struct {
	nextACT      int64 // tRRD_S
	nextRD       int64 // tCCD_S, tWTR_S
	nextWR       int64 // tCCD_S
	faw          [4]int64
	fawIdx       int
	refBusyUntil int64 // tRFC window
}

// lastBurst remembers the previous data-bus transaction for turnaround and
// slack accounting.
type lastBurst struct {
	valid bool
	end   int64
	rank  int
	group int
	write bool
}

// Channel is the cycle-level timing model of one DRAM channel. It is not
// safe for concurrent use; the whole simulator is single threaded and
// deterministic.
type Channel struct {
	cfg    Config
	banks  [][][]bankState // [rank][group][bank]
	groups [][]groupState  // [rank][group]
	ranks  []rankState

	busBusyUntil int64
	last         lastBurst
	lastIssue    int64 // latest command issue time, for monotonicity checks

	// cmds, when attached via SetObs, counts issued commands per kind.
	// Nil (the default) keeps Issue free of observability cost.
	cmds *[REF + 1]*obs.Counter
}

// SetObs attaches per-command-kind issue counters from the observability
// registry. Nil-safe: a disabled Obs leaves the channel untouched.
func (ch *Channel) SetObs(o *obs.Obs) {
	if !o.Enabled() {
		return
	}
	ch.cmds = &[REF + 1]*obs.Counter{
		ACT: o.Counter("dram_act_total"),
		PRE: o.Counter("dram_pre_total"),
		RD:  o.Counter("dram_rd_total"),
		WR:  o.Counter("dram_wr_total"),
		REF: o.Counter("dram_ref_total"),
	}
}

// NewChannel validates cfg and returns a fresh channel model.
func NewChannel(cfg Config) (*Channel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ch := &Channel{cfg: cfg, busBusyUntil: 0, lastIssue: infinitePast}
	g := cfg.Geometry
	ch.banks = make([][][]bankState, g.Ranks)
	ch.groups = make([][]groupState, g.Ranks)
	ch.ranks = make([]rankState, g.Ranks)
	for r := range ch.banks {
		ch.banks[r] = make([][]bankState, g.BankGroups)
		ch.groups[r] = make([]groupState, g.BankGroups)
		for bg := range ch.banks[r] {
			ch.banks[r][bg] = make([]bankState, g.BanksPerGroup)
			for b := range ch.banks[r][bg] {
				ch.banks[r][bg][b] = bankState{nextACT: 0, nextPRE: 0, nextCAS: 0}
			}
		}
		for i := range ch.ranks[r].faw {
			ch.ranks[r].faw[i] = infinitePast
		}
	}
	return ch, nil
}

// Config returns the channel's device configuration.
func (ch *Channel) Config() Config { return ch.cfg }

// OpenRow reports the open row of a bank, if any.
func (ch *Channel) OpenRow(rank, group, bank int) (int, bool) {
	b := &ch.banks[rank][group][bank]
	return b.row, b.open
}

// BusBusyUntil returns the cycle the data bus frees up.
func (ch *Channel) BusBusyUntil() int64 { return ch.busBusyUntil }

// columnLatency returns command-to-first-beat latency for a column command.
func (ch *Channel) columnLatency(c Command) int64 {
	t := &ch.cfg.Timing
	if c.Kind == RD {
		return int64(t.CL + c.ExtraCAS)
	}
	return int64(t.WL + c.ExtraCAS)
}

// turnaroundGap returns the minimum idle bus cycles required between the
// previous burst and a new burst of the given rank/direction (Section 3.1's
// bus-turnaround constraints: tRTRS on rank switches and direction changes).
func (ch *Channel) turnaroundGap(rank int, write bool) int64 {
	if !ch.last.valid {
		return 0
	}
	if ch.last.rank == rank && ch.last.write == write {
		return 0
	}
	return int64(ch.cfg.Timing.RTRS)
}

// anchorOffset returns the full start-to-start offset A such that the new
// burst's data may not begin before prevEnd+A, counting only constraints
// anchored to the end of the previous burst (the ones that move if the
// previous burst is extended). This is the quantity the slack of Figure 6
// is measured against.
func (ch *Channel) anchorOffset(c Command) int64 {
	a := ch.turnaroundGap(c.Rank, c.Kind == WR)
	if ch.last.valid && ch.last.write && c.Kind == RD && ch.last.rank == c.Rank {
		// tWTR runs from the end of write data to the read command; the
		// read's data trails by CL, so the data-to-data offset is WTR+CL.
		wtr := ch.cfg.Timing.WTRS
		if ch.last.group == c.Group {
			wtr = ch.cfg.Timing.WTRL
		}
		if w := int64(wtr) + ch.columnLatency(c); w > a {
			a = w
		}
	}
	return a
}

// EarliestIssue returns the earliest cycle >= now at which cmd meets every
// timing constraint. For RD/WR the bank must hold the command's row open;
// for ACT it must be closed; violations panic since the controller owns
// bank-state sequencing.
func (ch *Channel) EarliestIssue(cmd Command, now int64) int64 {
	bank := &ch.banks[cmd.Rank][cmd.Group][cmd.Bank]
	group := &ch.groups[cmd.Rank][cmd.Group]
	rank := &ch.ranks[cmd.Rank]
	t := max(now, rank.refBusyUntil)

	switch cmd.Kind {
	case ACT:
		if bank.open {
			panic(fmt.Sprintf("dram: ACT to open bank %v", cmd))
		}
		t = max(t, bank.nextACT, group.nextACT, rank.nextACT)
		t = max(t, rank.faw[rank.fawIdx]+int64(ch.cfg.Timing.FAW))
	case PRE:
		t = max(t, bank.nextPRE)
	case RD, WR:
		if !bank.open || bank.row != cmd.Row {
			panic(fmt.Sprintf("dram: %v to bank with row %d open=%v", cmd, bank.row, bank.open))
		}
		t = max(t, bank.nextCAS)
		if cmd.Kind == RD {
			t = max(t, group.nextRD, rank.nextRD)
		} else {
			t = max(t, group.nextWR, rank.nextWR)
		}
		// Data-bus availability plus turnaround bubble.
		lat := ch.columnLatency(cmd)
		gap := ch.turnaroundGap(cmd.Rank, cmd.Kind == WR)
		if earliestData := ch.busBusyUntil + gap; t+lat < earliestData {
			t = earliestData - lat
		}
	case REF:
		for bg := range ch.banks[cmd.Rank] {
			for b := range ch.banks[cmd.Rank][bg] {
				bs := &ch.banks[cmd.Rank][bg][b]
				if bs.open {
					panic(fmt.Sprintf("dram: REF r%d with bank g%d b%d open", cmd.Rank, bg, b))
				}
				t = max(t, bs.nextACT) // tRP from the closing precharge
			}
		}
	default:
		panic(fmt.Sprintf("dram: unknown command kind %v", cmd.Kind))
	}
	return t
}

// BurstInfo describes the data transfer a column command produced, plus the
// bookkeeping the controller needs for the Figure 4-6 statistics.
type BurstInfo struct {
	Window  BurstWindow
	PrevEnd int64 // end of the previous burst on this bus, -1 if none
	Anchor  int64 // minimum start-to-start offset from PrevEnd (slack base)
}

// Issue applies cmd at cycle t, which must be >= EarliestIssue(cmd, t); the
// model re-checks and panics on violations so scheduler bugs surface
// immediately. For column commands it returns the data-burst window.
func (ch *Channel) Issue(cmd Command, t int64) BurstInfo {
	if e := ch.EarliestIssue(cmd, t); t < e {
		panic(fmt.Sprintf("dram: %v issued at %d before earliest %d", cmd, t, e))
	}
	if t < ch.lastIssue {
		panic(fmt.Sprintf("dram: %v issued at %d before previous command at %d", cmd, t, ch.lastIssue))
	}
	ch.lastIssue = t
	if ch.cmds != nil {
		ch.cmds[cmd.Kind].Inc()
	}

	tm := &ch.cfg.Timing
	bank := &ch.banks[cmd.Rank][cmd.Group][cmd.Bank]
	group := &ch.groups[cmd.Rank][cmd.Group]
	rank := &ch.ranks[cmd.Rank]
	info := BurstInfo{PrevEnd: -1}

	switch cmd.Kind {
	case ACT:
		bank.open = true
		bank.row = cmd.Row
		bank.nextCAS = max(bank.nextCAS, t+int64(tm.RCD))
		bank.nextPRE = max(bank.nextPRE, t+int64(tm.RAS))
		bank.nextACT = max(bank.nextACT, t+int64(tm.RC))
		group.nextACT = max(group.nextACT, t+int64(tm.RRDL))
		rank.nextACT = max(rank.nextACT, t+int64(tm.RRDS))
		rank.faw[rank.fawIdx] = t
		rank.fawIdx = (rank.fawIdx + 1) % len(rank.faw)

	case PRE:
		bank.open = false
		bank.nextACT = max(bank.nextACT, t+int64(tm.RP))

	case RD, WR:
		if cmd.Beats < 2 || cmd.Beats%2 != 0 {
			panic(fmt.Sprintf("dram: burst of %d beats", cmd.Beats))
		}
		start := t + ch.columnLatency(cmd)
		end := start + int64(cmd.Beats/2)
		if ch.last.valid {
			info.PrevEnd = ch.last.end
			info.Anchor = ch.anchorOffset(cmd)
		}
		info.Window = BurstWindow{Start: start, End: end}

		if cmd.Kind == RD {
			bank.nextPRE = max(bank.nextPRE, t+int64(tm.RTP))
		} else {
			bank.nextPRE = max(bank.nextPRE, end+int64(tm.WR))
			// tWTR: end of write data to any read command in the rank.
			group.nextRD = max(group.nextRD, end+int64(tm.WTRL))
			rank.nextRD = max(rank.nextRD, end+int64(tm.WTRS))
		}
		group.nextRD = max(group.nextRD, t+int64(tm.CCDL))
		group.nextWR = max(group.nextWR, t+int64(tm.CCDL))
		rank.nextRD = max(rank.nextRD, t+int64(tm.CCDS))
		rank.nextWR = max(rank.nextWR, t+int64(tm.CCDS))

		ch.busBusyUntil = end
		ch.last = lastBurst{valid: true, end: end, rank: cmd.Rank, group: cmd.Group, write: cmd.Kind == WR}

	case REF:
		rank.refBusyUntil = t + int64(tm.RFC)

	default:
		panic(fmt.Sprintf("dram: unknown command kind %v", cmd.Kind))
	}
	return info
}
