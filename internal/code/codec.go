// Package code implements every coding scheme the paper uses or compares
// against: DBI (the DDR4 baseline), BI (the LPDDR3 baseline), the improved
// 3-LWC of Section 5.2.2, MiLC (Section 4.3.2), CAFO (the HPCA'15
// comparison point, Section 7.2), transition signaling (Sections 2.1.2 and
// 5.3), the optimal static (8,k) low-weight codes of the potential study
// in Figure 7 (on the bus as optmem and vlwcN), and ZAD skip-transfer.
//
// All codecs operate on 512-bit cache blocks laid out over a rank of eight
// x8 chips per Figure 12: chip c owns pins [9c, 9c+8), eight data pins plus
// the chip's DBI pin. Codecs that do not use the DBI pins park them
// (undriven pins cost no IO energy).
package code

import (
	"fmt"
	"strconv"
	"strings"

	"mil/internal/bitblock"
)

// BusWidth is the number of wires in the modeled data bus: 8 chips x
// (8 data + 1 DBI) pins.
const BusWidth = bitblock.Chips * PinsPerChip

// PinsPerChip is the per-chip pin budget (8 data + 1 DBI).
const PinsPerChip = 9

// DataPinsPerChip is the number of data pins per x8 chip.
const DataPinsPerChip = 8

// Codec encodes 512-bit blocks into bus bursts in the "zero domain": fewer
// zeros in the produced burst means less IO energy on a VDDQ-terminated
// (POD) interface, and - after transition signaling - fewer wire toggles on
// an unterminated interface.
type Codec interface {
	// Name identifies the scheme ("dbi", "milc", "lwc3", "cafo2", ...).
	Name() string
	// Beats is the burst length the scheme needs on the bus (BL in beats).
	Beats() int
	// ExtraLatency is the number of DRAM cycles the codec adds to tCL
	// (Section 4.4 / Table 4: one cycle for MiLC and 3-LWC, one per
	// iteration for CAFO, none for plain DBI).
	ExtraLatency() int
	// Encode produces the burst that appears on the bus for blk, in a
	// freshly allocated burst.
	Encode(blk *bitblock.Block) *bitblock.Burst
	// EncodeInto is the allocation-free encode path: it resets bu to the
	// codec's dimensions and writes the coded burst into it, so a
	// caller-held scratch burst absorbs the per-op allocation of Encode.
	// The caller owns bu before and after the call and may not assume any
	// previous contents survive.
	EncodeInto(blk *bitblock.Block, bu *bitblock.Burst)
	// CostZeros is the cost probe: exactly Encode(blk).CountZeros() - the
	// coded burst's zero count on driven pins - computed arithmetically
	// from lane popcounts, without materializing the burst. Scheme-
	// selection logic (the MiL write optimization, the tiered policy, the
	// bandit) probes candidate codecs with it instead of paying for trial
	// encodes it discards. The contract is exact equality, enforced by
	// TestCostZerosEquivalence for every implementation.
	CostZeros(blk *bitblock.Block) int
	// Decode recovers the original block from a burst produced by Encode.
	// Bursts Encode never produces - wrong dimensions, or bit patterns
	// outside the code (possible after transmission errors) - yield an
	// error, never a panic: decoders are the first line of corruption
	// detection on the read path, where DDR4 has no CRC.
	Decode(bu *bitblock.Burst) (bitblock.Block, error)
}

// CostZeros returns c.CostZeros(blk).
func CostZeros(c Codec, blk *bitblock.Block) int { return c.CostZeros(blk) }

// EncodeInto encodes blk with c into scratch and returns scratch, which
// the next EncodeInto with the same scratch invalidates.
func EncodeInto(c Codec, blk *bitblock.Block, scratch *bitblock.Burst) *bitblock.Burst {
	c.EncodeInto(blk, scratch)
	return scratch
}

// encodeNew is every codec's Encode: EncodeInto a fresh burst.
func encodeNew(c Codec, blk *bitblock.Block) *bitblock.Burst {
	bu := new(bitblock.Burst)
	c.EncodeInto(blk, bu)
	return bu
}

// checkDims validates a burst's shape against what a codec's Decode
// expects; every decoder calls it before touching bits so corrupted or
// misrouted bursts surface as errors instead of index panics.
func checkDims(name string, bu *bitblock.Burst, beats int) error {
	if bu == nil {
		return fmt.Errorf("code: %s decode of nil burst", name)
	}
	if bu.Width != BusWidth || bu.Beats != beats {
		return fmt.Errorf("code: %s decode of %dx%d burst, want %dx%d",
			name, bu.Width, bu.Beats, BusWidth, beats)
	}
	return nil
}

// drivenAll*/drivenData* are the two canonical driven masks any codec in
// this package produces: every bus pin, or every pin minus the per-chip
// DBI pins. Init-time constants for checkDriven.
var (
	drivenAllLo, drivenAllHi   uint64
	drivenDataLo, drivenDataHi uint64
)

func init() {
	drivenAllLo = ^uint64(0)
	drivenAllHi = 1<<(BusWidth-64) - 1
	drivenDataLo, drivenDataHi = drivenAllLo, drivenAllHi
	for c := 0; c < bitblock.Chips; c++ {
		p := chipDBIPin(c)
		if p < 64 {
			drivenDataLo &^= 1 << p
		} else {
			drivenDataHi &^= 1 << (p - 64)
		}
	}
}

// checkDriven validates a burst's per-pin driven mask against the
// canonical mask the codec's Encode produces (all pins, or the DBI pins
// parked). Decoders call it right after checkDims: a burst whose driven
// set disagrees with the code was produced by a different scheme or a
// misrouted replay, and reading data off pins the encoder never drove
// would silently accept garbage.
func checkDriven(name string, bu *bitblock.Burst, dbiPins bool) error {
	wantLo, wantHi := drivenAllLo, drivenAllHi
	if !dbiPins {
		wantLo, wantHi = drivenDataLo, drivenDataHi
	}
	lo, hi := bu.DrivenWords()
	if lo != wantLo || hi != wantHi {
		return fmt.Errorf("code: %s decode of burst with driven mask %02x_%016x, want %02x_%016x",
			name, hi, lo, wantHi, wantLo)
	}
	return nil
}

// chipDataPin returns the global pin index of data pin i of chip c.
func chipDataPin(c, i int) int { return c*PinsPerChip + i }

// chipDBIPin returns the global pin index of chip c's DBI pin.
func chipDBIPin(c int) int { return c*PinsPerChip + DataPinsPerChip }

// parkDBIPins marks every chip's DBI pin undriven for schemes that do not
// use it (MiLC, CAFO, raw data).
func parkDBIPins(bu *bitblock.Burst) {
	for c := 0; c < bitblock.Chips; c++ {
		bu.SetDriven(chipDBIPin(c), false)
	}
}

// ByName constructs a codec from its registry name. CAFO accepts any
// iteration count via "cafoN", the low-weight code any weight bound via
// "vlwcN", and ZAD any chunk granularity via "zadN"/"zadNr" (trailing r =
// resilient mask). It returns an error for unknown names.
func ByName(name string) (Codec, error) {
	switch name {
	case "raw":
		return Raw{}, nil
	case "dbi":
		return DBI{}, nil
	case "milc":
		return MiLC{}, nil
	case "lwc3":
		return LWC3{}, nil
	case "hybrid":
		return Hybrid{}, nil
	case "optmem":
		return defaultOptMem, nil
	case "vlwc":
		return defaultVLWC, nil
	case "zad":
		return NewZAD(4, false)
	case "zadr":
		return NewZAD(4, true)
	}
	var iters int
	if n, err := fmt.Sscanf(name, "cafo%d", &iters); n == 1 && err == nil && iters > 0 {
		return NewCAFO(iters), nil
	}
	var w int
	if n, err := fmt.Sscanf(name, "vlwc%d", &w); n == 1 && err == nil {
		return NewVLWC(w)
	}
	if spec, ok := strings.CutPrefix(name, "zad"); ok {
		resilient := strings.HasSuffix(spec, "r")
		if g, err := strconv.Atoi(strings.TrimSuffix(spec, "r")); err == nil {
			return NewZAD(g, resilient)
		}
	}
	return nil, fmt.Errorf("code: unknown codec %q", name)
}

// Names lists the registry names ByName accepts (CAFO shown for the two
// iteration counts the paper evaluates, ZAD for both mask modes at the
// default 4-beat granularity).
func Names() []string {
	return []string{"raw", "dbi", "milc", "lwc3", "hybrid", "cafo2", "cafo4",
		"optmem", "vlwc", "zad", "zadr"}
}
