package code

import (
	"math/bits"

	"mil/internal/bitblock"
)

// Raw transmits the block unmodified over the 64 data pins at burst length
// 8, with the DBI pins parked. It is the normalization point of the
// potential study in Figure 7 ("the number of zeroes observed on the
// original data").
type Raw struct{}

// Name implements Codec.
func (Raw) Name() string { return "raw" }

// Beats implements Codec.
func (Raw) Beats() int { return 8 }

// ExtraLatency implements Codec.
func (Raw) ExtraLatency() int { return 0 }

// Encode implements Codec.
func (r Raw) Encode(blk *bitblock.Block) *bitblock.Burst { return encodeNew(r, blk) }

// EncodeInto implements Codec.
func (Raw) EncodeInto(blk *bitblock.Block, bu *bitblock.Burst) {
	bu.Reset(BusWidth, 8)
	parkDBIPins(bu)
	for beat := 0; beat < 8; beat++ {
		var lo, hi uint64
		for c := 0; c < bitblock.Chips; c++ {
			orBeatBits(&lo, &hi, chipDataPin(c, 0), uint64(blk[beat*bitblock.Chips+c]), 8)
		}
		bu.SetBeatWords(beat, lo, hi)
	}
}

// CostZeros implements Codec: the data pins carry the block verbatim
// and the DBI pins are parked.
func (Raw) CostZeros(blk *bitblock.Block) int { return blk.CountZeros() }

// Decode implements Codec. Raw cannot detect corruption: every burst
// pattern is a valid encoding.
func (Raw) Decode(bu *bitblock.Burst) (bitblock.Block, error) {
	var blk bitblock.Block
	if err := checkDims("raw", bu, 8); err != nil {
		return blk, err
	}
	if err := checkDriven("raw", bu, false); err != nil {
		return blk, err
	}
	for beat := 0; beat < 8; beat++ {
		for c := 0; c < bitblock.Chips; c++ {
			blk[beat*bitblock.Chips+c] = byte(bu.BeatBits(beat, chipDataPin(c, 0), 8))
		}
	}
	return blk, nil
}

// DBI is the data bus inversion code DDR4 natively supports (Section
// 2.1.1): per byte, if more than four bits are 0 the ones' complement is
// sent with the DBI bit low (0); otherwise the original byte is sent with
// the DBI bit high (1). Every 9-bit group therefore carries at most four
// zeros. This is the baseline every evaluation figure normalizes to.
type DBI struct{}

// Name implements Codec.
func (DBI) Name() string { return "dbi" }

// Beats implements Codec.
func (DBI) Beats() int { return 8 }

// ExtraLatency implements Codec.
func (DBI) ExtraLatency() int { return 0 }

// dbiEncodeByte returns the wire byte and DBI bit for one data byte.
func dbiEncodeByte(b byte) (wire byte, dbiBit bool) {
	if zeros := 8 - bits.OnesCount8(b); zeros > 4 {
		return ^b, false
	}
	return b, true
}

// dbiDecodeByte inverts dbiEncodeByte.
func dbiDecodeByte(wire byte, dbiBit bool) byte {
	if !dbiBit {
		return ^wire
	}
	return wire
}

// Encode implements Codec.
func (d DBI) Encode(blk *bitblock.Block) *bitblock.Burst { return encodeNew(d, blk) }

// EncodeInto implements Codec.
func (DBI) EncodeInto(blk *bitblock.Block, bu *bitblock.Burst) {
	bu.Reset(BusWidth, 8)
	for beat := 0; beat < 8; beat++ {
		var lo, hi uint64
		for c := 0; c < bitblock.Chips; c++ {
			wire, dbiBit := dbiEncodeByte(blk[beat*bitblock.Chips+c])
			group := uint64(wire)
			if dbiBit {
				group |= 1 << DataPinsPerChip
			}
			orBeatBits(&lo, &hi, chipDataPin(c, 0), group, PinsPerChip)
		}
		bu.SetBeatWords(beat, lo, hi)
	}
}

// CostZeros implements Codec: a byte with z > 4 zeros is inverted and
// its DBI bit (transmitted 0) adds one zero; otherwise the byte's own zeros
// are paid.
func (DBI) CostZeros(blk *bitblock.Block) int {
	z := 0
	for _, b := range blk {
		if zb := 8 - bits.OnesCount8(b); zb > 4 {
			z += (8 - zb) + 1
		} else {
			z += zb
		}
	}
	return z
}

// Decode implements Codec. DBI cannot detect corruption: every 9-bit
// group decodes to some byte.
func (DBI) Decode(bu *bitblock.Burst) (bitblock.Block, error) {
	var blk bitblock.Block
	if err := checkDims("dbi", bu, 8); err != nil {
		return blk, err
	}
	if err := checkDriven("dbi", bu, true); err != nil {
		return blk, err
	}
	for beat := 0; beat < 8; beat++ {
		for c := 0; c < bitblock.Chips; c++ {
			wire := byte(bu.BeatBits(beat, chipDataPin(c, 0), 8))
			blk[beat*bitblock.Chips+c] = dbiDecodeByte(wire, bu.Bit(beat, chipDBIPin(c)))
		}
	}
	return blk, nil
}
