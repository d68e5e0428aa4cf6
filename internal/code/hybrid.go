package code

import (
	"fmt"

	"mil/internal/bitblock"
)

// Hybrid is the intermediate-length sparse code Section 7.5.3 calls for:
// the data-intensive benchmarks cannot afford 3-LWC's BL16 but waste the
// gap between BL10 and BL16 when only MiLC is available. Hybrid splits each
// chip's 8x8 square in half: the first four rows are MiLC-coded as a 4-row
// group (10 bits per row) and the last four bytes are 3-LWC-coded (17 bits
// each), giving 4x10 + 4x17 = 108 bits per lane, padded high to 112 = burst
// length 14 over the chip's data pins. It compresses zero-heavy bytes with
// the hard 3-LWC bound while keeping correlated rows on the cheap MiLC
// path, at 2 beats less than full 3-LWC.
type Hybrid struct{}

// Name implements Codec.
func (Hybrid) Name() string { return "hybrid" }

// Beats implements Codec.
func (Hybrid) Beats() int { return 14 }

// ExtraLatency implements Codec.
func (Hybrid) ExtraLatency() int { return 1 }

// hybridLaneBits is the padded per-lane payload: 14 beats x 8 pins.
const hybridLaneBits = 112

// hybridEncodeLane maps one 64-bit lane to its 112-bit codeword: rows 0-3
// are a 4-row MiLC group (row 0 carries the xorbi bit; the 3-bit xor column
// inverts when it carries 2+ zeros, cost 3-z+1 < z), bytes 4-7 are 3-LWC
// words transmitted inverted (<= 3 zeros each), and the last 4 bits pad
// high.
func hybridEncodeLane(lane uint64) laneCW {
	var cw laneCW
	var rows [8]milcRow
	invertColumn, _ := milcRows(lane, &rows, 4, 2)
	milcSerializeRows(&cw, &rows, 4, invertColumn)
	for r := 4; r < 8; r++ {
		w := lwcEncodeByte(byte(lane >> (8 * r)))
		cw.append(uint64(^w)&0x1ffff, lwcWordBits)
	}
	cw.append(0xf, 4) // pad high
	return cw
}

// hybridLaneZeros is the cost probe: the zero count of
// hybridEncodeLane(lane) without building the codeword.
func hybridLaneZeros(lane uint64) int {
	var rows [8]milcRow
	invertColumn, xorZeros := milcRows(lane, &rows, 4, 2)
	z := milcRowGroupZeros(&rows, 4, invertColumn, xorZeros)
	for r := 4; r < 8; r++ {
		z += int(lwcByteZeros[byte(lane>>(8*r))])
	}
	return z // the 4 pad bits are high: zero cost
}

// hybridDecodeLane inverts hybridEncodeLane. Corruption in the 3-LWC half
// of the lane is detectable (sparse codeword space); the MiLC half is not.
func hybridDecodeLane(cw *laneCW) (uint64, error) {
	var lane uint64
	xorbi := cw.bit(8)
	invertColumn := !xorbi
	var prev byte
	for r := 0; r < 4; r++ {
		wire := byte(cw.uint64(r*10, 8))
		if !cw.bit(r*10 + 9) {
			wire = ^wire
		}
		if r > 0 {
			x := cw.bit(r*10 + 8)
			if invertColumn {
				x = !x
			}
			if x {
				wire ^= prev
			}
		}
		lane |= uint64(wire) << (8 * r)
		prev = wire
	}
	for r := 4; r < 8; r++ {
		w := uint32(^cw.uint64(40+(r-4)*lwcWordBits, lwcWordBits)) & 0x1ffff
		d, err := lwcDecodeWord(w)
		if err != nil {
			return 0, err
		}
		lane |= uint64(d) << (8 * r)
	}
	return lane, nil
}

// Encode implements Codec.
func (c Hybrid) Encode(blk *bitblock.Block) *bitblock.Burst { return encodeNew(c, blk) }

// EncodeInto implements Codec.
func (Hybrid) EncodeInto(blk *bitblock.Block, bu *bitblock.Burst) {
	bu.Reset(BusWidth, 14)
	parkDBIPins(bu)
	var cws [bitblock.Chips]laneCW
	for c := range cws {
		cws[c] = hybridEncodeLane(blk.Lane(c))
	}
	storeLaneCodewords(bu, &cws, 14, 8)
}

// CostZeros implements Codec.
func (Hybrid) CostZeros(blk *bitblock.Block) int {
	z := 0
	for c := 0; c < bitblock.Chips; c++ {
		z += hybridLaneZeros(blk.Lane(c))
	}
	return z
}

// Decode implements Codec.
func (Hybrid) Decode(bu *bitblock.Burst) (bitblock.Block, error) {
	var blk bitblock.Block
	if err := checkDims("hybrid", bu, 14); err != nil {
		return blk, err
	}
	if err := checkDriven("hybrid", bu, false); err != nil {
		return blk, err
	}
	var cws [bitblock.Chips]laneCW
	loadLaneCodewords(bu, &cws, 14, 8)
	for c := range cws {
		lane, err := hybridDecodeLane(&cws[c])
		if err != nil {
			return blk, fmt.Errorf("code: hybrid chip %d: %w", c, err)
		}
		blk.SetLane(c, lane)
	}
	return blk, nil
}
