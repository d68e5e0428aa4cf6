package memctrl

import (
	"mil/internal/bitblock"
	"mil/internal/code"
	"mil/internal/fault"
)

// Lookahead is the view the coding decision logic gets of the scheduler
// state at the moment a column command is picked (Section 5.1): the rdyX
// comparator outputs. It counts the queued column commands - reads and
// writes whose bank already holds the right row open - whose timing
// constraints all resolve within the next x cycles, including the command
// being scheduled (which is ready now, so the count is at least 1).
type Lookahead interface {
	ColumnReadyWithin(x int) int
}

// Policy chooses the coding scheme for the column command about to issue.
// data is the block to be transmitted for writes and nil for reads (the
// controller cannot inspect read data at schedule time, Section 4.6).
type Policy interface {
	Name() string
	Choose(write bool, data *bitblock.Block, la Lookahead) code.Codec
}

// ReliabilityFeedback is the optional channel from the controller back to
// the policy: after every data burst the controller reports whether the
// transfer survived the link (failed = CRC NACK, CA parity reject, or a
// read decode failure). Policies that implement it - the milcore degrader -
// use the failure stream to walk their degradation ladder.
type ReliabilityFeedback interface {
	RecordBurst(codec string, write, failed bool)
}

// EpochStats is the observed-cost digest the controller hands an
// EpochObserver at each epoch boundary: deltas over the just-finished
// epoch, straight off the controller's own counters. Bursts counts
// issued column commands (including ones that later NACKed);
// Zeros/CostUnits/Beats are the coded-burst totals those bursts put on
// the wire, retried bursts' sunk cost included; Retries counts failed
// transfers (scheduled replays plus abandons).
type EpochStats struct {
	Bursts    int64
	Zeros     int64
	CostUnits int64
	Beats     int64
	Retries   int64
}

// EpochObserver is the second optional feedback channel from the
// controller back to the policy: every EpochLength() issued bursts the
// controller delivers the epoch's observed stat deltas, letting adaptive
// policies (the milcore bandit) steer on measured cost instead of
// predictions alone. With a multi-channel System sharing one policy
// instance, each channel counts and delivers its own epochs; channels
// tick in a fixed order, so delivery is deterministic. Policies that do
// not implement the interface pay exactly one nil check per burst (the
// zero-cost obs discipline, pinned at 0 allocs/op by
// TestEpochFeedbackZeroCostWhenDisabled).
type EpochObserver interface {
	// EpochLength returns the epoch size in issued bursts; must be > 0
	// (NewController rejects the policy otherwise).
	EpochLength() int
	// ObserveEpoch delivers one epoch's deltas. now is the DRAM cycle of
	// the epoch's closing burst. The stats are a value copy; the observer
	// may retain it freely but must not allocate on this path if it wants
	// to preserve the controller's zero-alloc column path.
	ObserveEpoch(now int64, delta EpochStats)
}

// FixedPolicy always applies one codec: the DBI baseline, the MiLC-only
// configuration, the CAFO variants, and the fixed-burst-length sensitivity
// study of Figure 20 are all FixedPolicy instances.
type FixedPolicy struct {
	Codec code.Codec
}

// Name implements Policy.
func (p FixedPolicy) Name() string { return p.Codec.Name() }

// Choose implements Policy.
func (p FixedPolicy) Choose(bool, *bitblock.Block, Lookahead) code.Codec { return p.Codec }

// PhyResult reports what one transfer cost and how it fared on the link.
// Zeros is the coded burst's zero count (the quantity Figure 17 reports);
// CostUnits is what the IO energy is proportional to on this interface
// (zeros on a VDDQ-terminated POD bus, wire toggles on an unterminated
// bus); Beats is the burst length consumed, including any write-CRC beats.
//
// The reliability fields are zero/false on a clean link: BitErrors counts
// injected wire flips; CRCError means the device's write-CRC check NACKed
// the transfer (ALERT_n); CAError means command/address parity rejected
// the command; DecodeErr means the receiving decoder rejected the burst
// (the read path's only detection on DDR4, which has no read CRC); Silent
// means corruption was delivered undetected. Arrived is the block as
// received - what a write actually stores - valid only when no error flag
// is set.
type PhyResult struct {
	Zeros     int
	CostUnits int
	Beats     int

	BitErrors int
	CRCError  bool
	CAError   bool
	DecodeErr bool
	Silent    bool
	Arrived   bitblock.Block
}

// Failed reports whether the transfer must be replayed.
func (r *PhyResult) Failed() bool { return r.CRCError || r.CAError || r.DecodeErr }

// Phy models the IO interface: it encodes a block with the chosen codec,
// puts it on the (possibly faulty) wires, and reports what the transfer
// cost and whether it survived. Implementations are stateful (the
// unterminated interface's toggle count depends on previous wire levels;
// injectors hold PRNG streams) and not safe for concurrent use.
type Phy interface {
	Transmit(c code.Codec, blk *bitblock.Block, write bool) PhyResult
}

// LinkConfig is the reliability configuration shared by the phy
// implementations: an optional fault injector plus the DDR4 RAS features
// that detect what it breaks. The zero value is a perfectly reliable,
// feature-free link with exactly the seed behavior.
type LinkConfig struct {
	// Inject corrupts bursts on the wire; nil = reliable link.
	Inject *fault.Injector
	// WriteCRC appends CRCBeats of per-chip CRC-8 to every write burst
	// and NACKs mismatches (DDR4 write CRC).
	WriteCRC bool
	// CRCBeats is the write-CRC burst-length overhead (>= 2, even).
	CRCBeats int
	// CABits > 0 enables command/address parity: every column command
	// rolls a corruption across CABits CA-bus bits and is rejected when
	// one lands (DDR4 CA parity).
	CABits int
}

// transmitCommon runs the shared reliability pipeline over an encoded
// burst: CA parity roll, CRC append, wire corruption, device-side CRC
// check, and decode. It mutates bu (corruption happens in place) and
// fills every PhyResult field except CostUnits, which each interface
// derives from its own cost model.
func (l *LinkConfig) transmitCommon(c code.Codec, blk *bitblock.Block, bu *bitblock.Burst, write bool) PhyResult {
	res := PhyResult{Arrived: *blk}
	crc := write && l.WriteCRC
	if crc {
		bu = code.AppendWriteCRC(bu, l.CRCBeats)
	}
	if l.Inject.Enabled() {
		if l.CABits > 0 && l.Inject.CommandError(l.CABits) {
			// The device rejected the command; the data slot was already
			// reserved, so the burst still crosses (and pays for) the bus.
			res.CAError = true
		}
		res.BitErrors = l.Inject.Corrupt(bu)
	}
	res.Zeros = bu.CountZeros()
	res.Beats = bu.Beats
	if res.CAError {
		return res
	}
	if crc {
		ok := code.CheckWriteCRC(bu, l.CRCBeats)
		bu = code.StripWriteCRC(bu, l.CRCBeats)
		if !ok {
			res.CRCError = true
			return res
		}
	}
	if res.BitErrors > 0 {
		got, err := c.Decode(bu)
		if err != nil {
			res.DecodeErr = true
			return res
		}
		res.Arrived = got
		res.Silent = got != *blk
	}
	return res
}

// PODPhy is the DDR4 pseudo-open-drain interface of Section 2.1.1: only
// transmitted zeros cost energy, so CostUnits equals the coded burst's zero
// count (write-CRC beats included - reliability bits are not free).
type PODPhy struct {
	// Verify decodes every burst and panics on mismatch; used by
	// integration tests to prove the data path end to end.
	Verify bool
	Link   LinkConfig
	// scratch absorbs the per-transfer burst allocation: phys are
	// per-channel and not safe for concurrent use (see Phy), so one
	// reusable burst serves every Transmit. Nothing retains the burst past
	// the call - transmitCommon reads/corrupts it in place and the results
	// carried out of Transmit are plain values.
	scratch bitblock.Burst
}

// Transmit implements Phy.
func (p *PODPhy) Transmit(c code.Codec, blk *bitblock.Block, write bool) PhyResult {
	bu := &p.scratch
	c.EncodeInto(blk, bu)
	if p.Verify {
		got, err := c.Decode(bu)
		if err != nil || got != *blk {
			panic("memctrl: POD phy round-trip mismatch for codec " + c.Name())
		}
	}
	res := p.Link.transmitCommon(c, blk, bu, write)
	res.CostUnits = res.Zeros
	return res
}

// TransitionPhy is the unterminated LPDDR3 interface driven with the
// flip-on-zero transition signaling of Sections 4.5/5.3: the wire toggles
// exactly on coded zeros, so any zero-minimizing codec carries over and
// CostUnits (toggles) equals Zeros. With fault injection enabled the full
// signal/corrupt/recover wire path runs so a flipped wire level corrupts
// the following logical bit too, as it does on a real transition-signaled
// link; tx and rx wire state can diverge transiently after an error and
// re-synchronize on the next toggle.
type TransitionPhy struct {
	Verify  bool
	Link    LinkConfig
	txState bitblock.BusState
	rxState bitblock.BusState
	scratch bitblock.Burst // see PODPhy.scratch
}

// Transmit implements Phy.
func (p *TransitionPhy) Transmit(c code.Codec, blk *bitblock.Block, write bool) PhyResult {
	bu := &p.scratch
	c.EncodeInto(blk, bu)
	z := bu.CountZeros()
	if !p.Link.Inject.Enabled() {
		if p.Verify {
			wire := code.SignalTransitions(bu, &p.txState)
			back := code.RecoverTransitions(wire, &p.rxState)
			got, err := c.Decode(back)
			if err != nil || got != *blk {
				panic("memctrl: transition phy round-trip mismatch for codec " + c.Name())
			}
		}
		return PhyResult{Zeros: z, CostUnits: z, Beats: bu.Beats, Arrived: *blk}
	}

	// Faulty link: run the real wire path. Toggles (the cost) are counted
	// on the corrupted wire levels relative to the pre-burst tx state.
	res := PhyResult{Arrived: *blk, Beats: bu.Beats, Zeros: z}
	if p.Link.CABits > 0 && p.Link.Inject.CommandError(p.Link.CABits) {
		res.CAError = true
	}
	preBurst := p.txState
	wire := code.SignalTransitions(bu, &p.txState)
	res.BitErrors = p.Link.Inject.Corrupt(wire)
	res.CostUnits = wire.Transitions(&preBurst)
	if res.CAError {
		// The device ignored the burst but its receiver still saw the wire
		// levels; advance rx state without delivering data.
		code.RecoverTransitions(wire, &p.rxState)
		return res
	}
	back := code.RecoverTransitions(wire, &p.rxState)
	got, err := c.Decode(back)
	if err != nil {
		res.DecodeErr = true
		return res
	}
	res.Arrived = got
	res.Silent = got != *blk
	return res
}

// BIWirePhy is the LPDDR3 baseline of Section 2.1.2: plain bus-invert
// coding applied directly to the unterminated wires (LPDDR3 has no native
// coding; BI is the natural predecessor MiL is compared against). The
// chosen codec only sets the burst timing (the baseline policy picks Raw,
// BL8); the coding and toggle accounting happen here, statefully. BI has
// no error detection: corruption is always silent.
type BIWirePhy struct {
	Verify bool
	Link   LinkConfig
	bi     code.BusInvert
	state  bitblock.BusState
}

// Transmit implements Phy.
func (p *BIWirePhy) Transmit(c code.Codec, blk *bitblock.Block, write bool) PhyResult {
	wire, toggles := p.bi.EncodeWire(blk, &p.state)
	if p.Verify {
		if got := p.bi.DecodeWire(wire); got != *blk {
			panic("memctrl: BI phy round-trip mismatch")
		}
	}
	res := PhyResult{Zeros: toggles, CostUnits: toggles, Beats: c.Beats(), Arrived: *blk}
	if p.Link.Inject.Enabled() {
		if p.Link.CABits > 0 && p.Link.Inject.CommandError(p.Link.CABits) {
			res.CAError = true
		}
		res.BitErrors = p.Link.Inject.Corrupt(wire)
		if res.BitErrors > 0 && !res.CAError {
			got := p.bi.DecodeWire(wire)
			res.Arrived = got
			res.Silent = got != *blk
		}
	}
	return res
}
