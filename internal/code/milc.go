package code

import (
	"math/bits"

	"mil/internal/bitblock"
)

// MiLC is the "More is Less Code" of Section 4.3.2 (Figures 10 and 14).
// Each chip's 64-bit slice is laid out as an 8x8 square (row r = the byte
// the chip transmits during beat r). Every row is encoded with the best of
// four candidates - original, inverted, XORed with the previous original
// row, or inverted-and-XORed - selected to minimize the number of zeros,
// including the zeros the two mode bits themselves contribute (the
// "additional constant" of Figure 14). The XOR candidates exploit spatial
// correlation between adjacent rows. The first row has no predecessor; its
// XOR-mode slot instead carries the xorbi bit, which bus-inverts the other
// seven XOR mode bits in the column when that reduces zeros.
//
// The code maps 64 bits to 80 (8 rows x [8 data + xor + invert]), i.e.
// burst length 10 over the chip's 8 data pins; the DBI pins are parked.
type MiLC struct{}

// Name implements Codec.
func (MiLC) Name() string { return "milc" }

// Beats implements Codec.
func (MiLC) Beats() int { return 10 }

// ExtraLatency implements Codec.
func (MiLC) ExtraLatency() int { return 1 }

// milcRow is one encoded row: the 8 wire bits plus its two mode bits.
type milcRow struct {
	wire byte
	xor  bool // raw XOR choice: true = row was XORed with the previous row
	inv  bool // DBI-convention invert bit: false = row transmitted inverted
}

// zeros8 counts zero bits in a byte.
func zeros8(b byte) int { return 8 - bits.OnesCount8(b) }

// boolBitZero returns the zero-count contribution of transmitting b as one
// bit (1 if b is false).
func boolBitZero(b bool) int {
	if b {
		return 0
	}
	return 1
}

// encodeMilcRow picks the cheapest of the four candidates for row cur given
// the previous original row. The xor mode bit is transmitted as 1 when the
// XOR was applied and the invert bit follows the DBI convention (0 =
// inverted), so the per-candidate cost adds the zeros of the mode bits.
// Two popcounts cover all four candidates - inverting a wire with z zeros
// leaves 8-z - and ties resolve in the original candidate order (xor-less
// first, uninverted first) via strict less-than.
func encodeMilcRow(cur, prev byte) milcRow {
	z1 := zeros8(cur)        // candidate (xor=0): mode bits cost 1+0
	z2 := zeros8(cur ^ prev) // candidate (xor=1): mode bits cost 0+0
	best := milcRow{wire: cur, inv: true}
	bestCost := z1 + 1
	if c := 10 - z1; c < bestCost { // inverted: (8-z1) + 1 + 1
		best, bestCost = milcRow{wire: ^cur, inv: false}, c
	}
	if c := z2; c < bestCost {
		best, bestCost = milcRow{wire: cur ^ prev, xor: true, inv: true}, c
	}
	if c := 9 - z2; c < bestCost { // xor+inverted: (8-z2) + 0 + 1
		best = milcRow{wire: ^(cur ^ prev), xor: true, inv: false}
	}
	return best
}

// milcRows fills rows[0:n] with the greedy per-row encoding of the first n
// bytes of lane and decides the xor-column bus inversion: row 0 gets the
// plain invert choice, rows 1..n-1 the four-candidate search, and the
// column of n-1 XOR mode bits is inverted when it carries at least
// invThreshold zeros. It returns the inversion decision and the
// pre-inversion zero count of the xor column; both the full 8-row MiLC code
// and Hybrid's 4-row group are instances.
func milcRows(lane uint64, rows *[8]milcRow, n, invThreshold int) (invertColumn bool, xorZeros int) {
	r0 := byte(lane)
	if zeros8(r0) > 4 {
		rows[0] = milcRow{wire: ^r0, inv: false}
	} else {
		rows[0] = milcRow{wire: r0, inv: true}
	}
	prev := r0
	for r := 1; r < n; r++ {
		cur := byte(lane >> (8 * r))
		rows[r] = encodeMilcRow(cur, prev)
		prev = cur
	}
	for r := 1; r < n; r++ {
		xorZeros += boolBitZero(rows[r].xor)
	}
	return xorZeros >= invThreshold, xorZeros
}

// milcSerializeRows lays rows[0:n] out row-major into cw: row r occupies
// bits [10r, 10r+10) as [8 data][xor slot][invert bit], with row 0's xor
// slot carrying the xorbi bit (DBI convention: 0 = column inverted).
func milcSerializeRows(cw *laneCW, rows *[8]milcRow, n int, invertColumn bool) {
	for r := 0; r < n; r++ {
		cw.append(uint64(rows[r].wire), 8)
		if r == 0 {
			cw.appendBit(!invertColumn)
		} else {
			x := rows[r].xor
			if invertColumn {
				x = !x
			}
			cw.appendBit(x)
		}
		cw.appendBit(rows[r].inv)
	}
}

// milcRowGroupZeros returns the transmitted zero count of rows[0:n] plus
// their mode bits under the column-inversion decision - the arithmetic
// equivalent of serializing the group and counting zeros.
func milcRowGroupZeros(rows *[8]milcRow, n int, invertColumn bool, xorZeros int) int {
	z := 0
	for r := 0; r < n; r++ {
		z += zeros8(rows[r].wire) + boolBitZero(rows[r].inv)
	}
	if invertColumn {
		z += 1 + (n - 1 - xorZeros) // xorbi transmitted 0, column flipped
	} else {
		z += xorZeros
	}
	return z
}

// milcEncodeLane maps a 64-bit lane to its 80-bit codeword. Row 0's xor
// slot is the xorbi bit, which bus-inverts the other seven XOR mode bits
// when the column carries 5+ zeros (invert costs (7-xorZeros)+1).
func milcEncodeLane(lane uint64) laneCW {
	var rows [8]milcRow
	invertColumn, _ := milcRows(lane, &rows, 8, 5)
	var cw laneCW
	milcSerializeRows(&cw, &rows, 8, invertColumn)
	return cw
}

// milcLaneZeros is the cost probe: the zero count of milcEncodeLane(lane)
// without building the codeword.
func milcLaneZeros(lane uint64) int {
	var rows [8]milcRow
	invertColumn, xorZeros := milcRows(lane, &rows, 8, 5)
	return milcRowGroupZeros(&rows, 8, invertColumn, xorZeros)
}

// milcDecodeLane inverts milcEncodeLane.
func milcDecodeLane(cw *laneCW) uint64 {
	xorbi := cw.bit(8)
	invertColumn := !xorbi
	var lane uint64
	var prev byte
	for r := 0; r < 8; r++ {
		wire := byte(cw.uint64(r*10, 8))
		invBit := cw.bit(r*10 + 9)
		if !invBit {
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
	return lane
}

// Encode implements Codec.
func (c MiLC) Encode(blk *bitblock.Block) *bitblock.Burst { return encodeNew(c, blk) }

// EncodeInto implements Codec.
func (MiLC) EncodeInto(blk *bitblock.Block, bu *bitblock.Burst) {
	bu.Reset(BusWidth, 10)
	parkDBIPins(bu)
	var cws [bitblock.Chips]laneCW
	for c := range cws {
		cws[c] = milcEncodeLane(blk.Lane(c))
	}
	storeLaneCodewords(bu, &cws, 10, 8)
}

// CostZeros implements Codec.
func (MiLC) CostZeros(blk *bitblock.Block) int {
	z := 0
	for c := 0; c < bitblock.Chips; c++ {
		z += milcLaneZeros(blk.Lane(c))
	}
	return z
}

// Decode implements Codec. MiLC's 80-bit codeword space is dense (every
// mode-bit combination is meaningful), so corruption decodes to a wrong
// block silently; only dimension mismatches are detectable.
func (MiLC) Decode(bu *bitblock.Burst) (bitblock.Block, error) {
	var blk bitblock.Block
	if err := checkDims("milc", bu, 10); err != nil {
		return blk, err
	}
	if err := checkDriven("milc", bu, false); err != nil {
		return blk, err
	}
	var cws [bitblock.Chips]laneCW
	loadLaneCodewords(bu, &cws, 10, 8)
	for c := range cws {
		blk.SetLane(c, milcDecodeLane(&cws[c]))
	}
	return blk, nil
}
