package code

import (
	"fmt"
	"math/bits"

	"mil/internal/bitblock"
)

// LWC3 is the improved 3-limited-weight code of Section 5.2.2 (Figure 13,
// Table 1). Each data byte is split into two nibbles; each nibble is
// one-hot encoded into a 15-bit form (value 0 maps to all zeros, value v>0
// to a single 1 at position v-1); the two forms are ORed into the 15-bit
// code; and a 2-bit mode disambiguates which nibble(s) produced each set
// bit. The resulting 17-bit word has Hamming weight at most 3, so after the
// final inversion (footnote 4: minimizing zeros requires inverting an LWC)
// the transmitted word carries at most three zeros per original byte.
//
// A 512-bit block becomes 8 chips x 8 bytes x 17 bits = 1088 bits. Each
// chip serializes its 8 codewords plus 8 pad bits (driven high, which is
// free) over 16 beats of its 9 pins (8 data + the reused DBI pin), matching
// the BL16 format of Figure 12(b).
type LWC3 struct{}

// lwcWordBits is the codeword length per byte: 15 code + 2 mode bits.
const lwcWordBits = 17

// Name implements Codec.
func (LWC3) Name() string { return "lwc3" }

// Beats implements Codec.
func (LWC3) Beats() int { return 16 }

// ExtraLatency implements Codec.
func (LWC3) ExtraLatency() int { return 1 }

// lwcOneHot maps a nibble to its 15-bit one-hot intermediate form.
func lwcOneHot(v byte) uint16 {
	if v == 0 {
		return 0
	}
	return 1 << (v - 1)
}

// lwcEncodeByte produces the 17-bit codeword (pre-inversion): bits 0..14
// are the code, bits 15..16 the mode, per Table 1.
func lwcEncodeByte(d byte) uint32 {
	l := d >> 4
	r := d & 0x0f
	left := lwcOneHot(l)
	right := lwcOneHot(r)
	codeBits := left | right

	var mode uint32
	switch {
	case l == 0 && r == 0:
		mode = 0 // all-zeros code
	case l == r:
		mode = 1 // single 1, both nibbles equal
	case r == 0:
		mode = 0 // single 1, came from the left nibble
	case l == 0:
		mode = 2 // single 1, came from the right nibble
	case l > r:
		mode = 2 // two 1s, left nibble holds the greater position
	default:
		mode = 0 // two 1s, left nibble holds the smaller position
	}
	return uint32(codeBits) | mode<<15
}

// lwcByteZeros[b] is the number of zeros the transmitted (inverted) 17-bit
// codeword of byte b carries: the popcount of the pre-inversion word. An
// init-time constant table, so the cost probe is a single lookup per byte.
var lwcByteZeros = func() [256]uint8 {
	var t [256]uint8
	for b := 0; b < 256; b++ {
		t[b] = uint8(bits.OnesCount32(lwcEncodeByte(byte(b))))
	}
	return t
}()

// lwcDecodeWord inverts lwcEncodeByte. It reports an error for words that
// no byte encodes to (weight > 3, mode 0b11, or inconsistent mode/code
// combinations), which decode uses to surface corrupted bursts in tests.
func lwcDecodeWord(w uint32) (byte, error) {
	codeBits := uint16(w & 0x7fff)
	mode := w >> 15 & 0x3
	switch bits.OnesCount16(codeBits) {
	case 0:
		if mode != 0 {
			return 0, fmt.Errorf("code: lwc3 empty code with mode %d", mode)
		}
		return 0, nil
	case 1:
		p := byte(bits.TrailingZeros16(codeBits)) + 1
		switch mode {
		case 1:
			return p<<4 | p, nil
		case 0:
			return p << 4, nil
		case 2:
			return p, nil
		}
		return 0, fmt.Errorf("code: lwc3 single-one code with mode %d", mode)
	case 2:
		q := byte(bits.TrailingZeros16(codeBits)) + 1   // smaller position
		p := byte(15-bits.LeadingZeros16(codeBits)) + 1 // greater position
		switch mode {
		case 2:
			return p<<4 | q, nil
		case 0:
			return q<<4 | p, nil
		}
		return 0, fmt.Errorf("code: lwc3 two-one code with mode %d", mode)
	}
	return 0, fmt.Errorf("code: lwc3 word weight %d > 2", bits.OnesCount16(codeBits))
}

// laneWordBits is the serialized per-chip payload: 8 codewords + 8 pad
// bits = 144 bits = 16 beats x 9 pins.
const laneWordBits = 8*lwcWordBits + 8

// Encode implements Codec.
func (c LWC3) Encode(blk *bitblock.Block) *bitblock.Burst { return encodeNew(c, blk) }

// EncodeInto implements Codec.
func (LWC3) EncodeInto(blk *bitblock.Block, bu *bitblock.Burst) {
	bu.Reset(BusWidth, 16)
	var cws [bitblock.Chips]laneCW
	for c := range cws {
		for b := 0; b < 8; b++ {
			w := lwcEncodeByte(blk[b*bitblock.Chips+c])
			// Transmit the inverted word so at most 3 of 17 bits are 0.
			cws[c].append(uint64(^w)&0x1ffff, lwcWordBits)
		}
		cws[c].append(0xff, 8) // pad beats high: free on a POD interface
	}
	storeLaneCodewords(bu, &cws, 16, PinsPerChip)
}

// CostZeros implements Codec: each byte's inverted codeword carries
// lwcByteZeros[b] zeros and the pad bits are high, so the probe is 64 table
// lookups.
func (LWC3) CostZeros(blk *bitblock.Block) int {
	z := 0
	for _, b := range blk {
		z += int(lwcByteZeros[b])
	}
	return z
}

// Decode implements Codec. The 3-LWC codeword space is sparse (at most 3
// of 17 transmitted zeros), so most wire corruption lands outside the code
// and is reported as an error - the detection capability the MiL
// degradation ladder relies on for reads.
func (LWC3) Decode(bu *bitblock.Burst) (bitblock.Block, error) {
	var blk bitblock.Block
	if err := checkDims("lwc3", bu, 16); err != nil {
		return blk, err
	}
	if err := checkDriven("lwc3", bu, true); err != nil {
		return blk, err
	}
	var cws [bitblock.Chips]laneCW
	loadLaneCodewords(bu, &cws, 16, PinsPerChip)
	for c := range cws {
		for b := 0; b < 8; b++ {
			w := uint32(^cws[c].uint64(b*lwcWordBits, lwcWordBits)) & 0x1ffff
			d, err := lwcDecodeWord(w)
			if err != nil {
				// Encode never produces such words: data corruption.
				return blk, fmt.Errorf("chip %d byte %d: %w", c, b, err)
			}
			blk[b*bitblock.Chips+c] = d
		}
	}
	return blk, nil
}
