package code

import (
	"fmt"
	"math/bits"

	"mil/internal/bitblock"
)

// CAFO adapts the cost-aware flip optimization of Maddah et al. (HPCA'15)
// to the MiL framework exactly as Section 7.2 describes: two-dimensional
// bus inversion over the same 8x8 per-chip square MiLC uses, iterating row
// and column flip passes. Each iteration costs one DRAM cycle of encode
// latency, so CAFO2 (one row pass + one column pass) adds 2 cycles to tCL
// and CAFO4 adds 4. The flags use the DBI convention (flag 0 = flipped) so
// the codeword is 64 data + 8 row flags + 8 column flags = 80 bits = burst
// length 10 over the 8 data pins, the same bandwidth overhead as MiLC.
type CAFO struct {
	iters int
}

// NewCAFO returns a CAFO codec running the given number of alternating
// row/column passes (>= 1). The paper evaluates 2 and 4.
func NewCAFO(iters int) CAFO {
	if iters < 1 {
		panic(fmt.Sprintf("code: CAFO iterations %d < 1", iters))
	}
	return CAFO{iters: iters}
}

// Name implements Codec.
func (c CAFO) Name() string { return fmt.Sprintf("cafo%d", c.iters) }

// Beats implements Codec.
func (CAFO) Beats() int { return 10 }

// ExtraLatency implements Codec.
func (c CAFO) ExtraLatency() int { return c.iters }

// Iterations returns the configured pass count.
func (c CAFO) Iterations() int { return c.iters }

// cafoLane holds the encoder state for one 8x8 square. Flips are kept as
// bitmasks so the wire matrix is data[r] ^ (rowFlip[r] ? 0xff : 0) ^
// colFlip, never rebuilt per bit: a flipped column is one XOR mask and a
// flipped row one complement, which keeps each pass O(64) instead of the
// O(8^3) the naive per-cell rebuild costs.
type cafoLane struct {
	data    [8]byte // original rows
	rowFlip byte    // bit r = row r transmitted inverted
	colFlip byte    // bit j = column j inverted
}

// wireRow returns row r after the current flips.
func (l *cafoLane) wireRow(r int) byte {
	w := l.data[r]
	if l.rowFlip>>r&1 == 1 {
		w = ^w
	}
	return w ^ l.colFlip
}

// rowPass greedily picks each row's flip to minimize that row's zeros plus
// the flag bit's own zero cost. Row decisions are independent (a row flip
// touches no other row), so each costs one popcount: keeping the row costs
// its zeros z, flipping costs (8-z)+1 for the flag transmitted as 0.
// Returns true if any flip changed.
func (l *cafoLane) rowPass() bool {
	changed := false
	for r := 0; r < 8; r++ {
		keep := l.rowFlip >> r & 1
		z := zeros8(l.data[r] ^ l.colFlip)
		var best byte
		if 8-z+1 < z {
			best = 1
		}
		l.rowFlip = l.rowFlip&^(1<<r) | best<<r
		if best != keep {
			changed = true
		}
	}
	return changed
}

// colPass is rowPass transposed: column decisions are likewise independent
// (column j's zeros depend only on bit j of each row), so one pass over the
// 8x8 square yields every column's zero count.
func (l *cafoLane) colPass() bool {
	var colOnes [8]int
	for r := 0; r < 8; r++ {
		w := l.data[r]
		if l.rowFlip>>r&1 == 1 {
			w = ^w
		}
		for j := 0; j < 8; j++ {
			colOnes[j] += int(w >> j & 1)
		}
	}
	changed := false
	for j := 0; j < 8; j++ {
		keep := l.colFlip >> j & 1
		z := 8 - colOnes[j]
		var best byte
		if 8-z+1 < z {
			best = 1
		}
		l.colFlip = l.colFlip&^(1<<j) | best<<j
		if best != keep {
			changed = true
		}
	}
	return changed
}

// optimize runs the alternating row/column passes with early convergence.
func (l *cafoLane) optimize(lane uint64, iters int) {
	for r := 0; r < 8; r++ {
		l.data[r] = byte(lane >> (8 * r))
	}
	for it := 0; it < iters; it++ {
		var changed bool
		if it%2 == 0 {
			changed = l.rowPass()
		} else {
			changed = l.colPass()
		}
		if !changed && it > 0 {
			break // converged early; remaining iterations are no-ops
		}
	}
}

// cafoEncodeLane runs the alternating passes and serializes the 80-bit
// codeword: 8 wire rows, then 8 row flags, then 8 column flags, each flag
// transmitted as 1 when no flip was applied.
func cafoEncodeLane(lane uint64, iters int) laneCW {
	var l cafoLane
	l.optimize(lane, iters)
	var cw laneCW
	for r := 0; r < 8; r++ {
		cw.append(uint64(l.wireRow(r)), 8)
	}
	cw.append(uint64(^l.rowFlip), 8) // flag bit r = 1 when row r not flipped
	cw.append(uint64(^l.colFlip), 8)
	return cw
}

// cafoLaneZeros is the cost probe: the zero count of the lane's codeword
// without serializing it - each flipped row/column flag is itself one
// transmitted zero.
func cafoLaneZeros(lane uint64, iters int) int {
	var l cafoLane
	l.optimize(lane, iters)
	z := 0
	for r := 0; r < 8; r++ {
		z += zeros8(l.wireRow(r))
	}
	return z + bits.OnesCount8(l.rowFlip) + bits.OnesCount8(l.colFlip)
}

// cafoDecodeLane inverts cafoEncodeLane.
func cafoDecodeLane(cw *laneCW) uint64 {
	colMask := ^byte(cw.uint64(72, 8)) // flag 0 = column flipped
	rowMask := ^byte(cw.uint64(64, 8))
	var lane uint64
	for r := 0; r < 8; r++ {
		w := byte(cw.uint64(r*8, 8)) ^ colMask
		if rowMask>>r&1 == 1 {
			w = ^w
		}
		lane |= uint64(w) << (8 * r)
	}
	return lane
}

// Encode implements Codec.
func (c CAFO) Encode(blk *bitblock.Block) *bitblock.Burst { return encodeNew(c, blk) }

// EncodeInto implements Codec.
func (c CAFO) EncodeInto(blk *bitblock.Block, bu *bitblock.Burst) {
	bu.Reset(BusWidth, 10)
	parkDBIPins(bu)
	var cws [bitblock.Chips]laneCW
	for ch := range cws {
		cws[ch] = cafoEncodeLane(blk.Lane(ch), c.iters)
	}
	storeLaneCodewords(bu, &cws, 10, 8)
}

// CostZeros implements Codec.
func (c CAFO) CostZeros(blk *bitblock.Block) int {
	z := 0
	for ch := 0; ch < bitblock.Chips; ch++ {
		z += cafoLaneZeros(blk.Lane(ch), c.iters)
	}
	return z
}

// Decode implements Codec. Like MiLC, every flag combination is valid, so
// only dimension mismatches are detectable.
func (CAFO) Decode(bu *bitblock.Burst) (bitblock.Block, error) {
	var blk bitblock.Block
	if err := checkDims("cafo", bu, 10); err != nil {
		return blk, err
	}
	if err := checkDriven("cafo", bu, false); err != nil {
		return blk, err
	}
	var cws [bitblock.Chips]laneCW
	loadLaneCodewords(bu, &cws, 10, 8)
	for ch := range cws {
		blk.SetLane(ch, cafoDecodeLane(&cws[ch]))
	}
	return blk, nil
}
