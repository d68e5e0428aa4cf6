package code

import (
	"fmt"

	"mil/internal/bitblock"
)

// ZAD is zero-aware skip-transfer: a chunk of consecutive beats whose data
// is entirely zero is elided from the transfer, and a one-bit-per-chunk
// skip mask on the chip's DBI pin tells the receiver which chunks to
// reconstruct as zeros. Present chunks go on the wire raw. The burst stays
// BL8 - DDR4's burst length is fixed, so skipping buys energy, not bus
// occupancy: a skipped chunk's data beats are driven high (the free level
// on a POD interface) and the receiver never reads them, which models the
// chunk not being transmitted at all. That is also the reliability story
// the fault experiments probe: wire noise cannot corrupt data that is not
// on the wire, so flips landing in a skipped chunk's beats are ignored by
// construction - only the skip-mask sideband itself is exposed.
//
// The chunk granularity g (beats per chunk, a divisor of 8) trades skip
// opportunity against mask exposure. In the plain mode each chunk's mask
// bit appears once, on the DBI pin during the chunk's first beat (the
// other DBI beats idle high, free), so an all-zero chunk costs exactly one
// transmitted zero - but a single flip on that bit silently converts the
// chunk. The resilient mode repeats the mask bit across all g beats of
// its chunk and decodes by majority vote: up to ceil(g/2)-1 flips are
// outvoted and an exact tie is reported as corruption, at the price of g
// zeros per skipped chunk instead of one.
//
// Timing: BL8 with no extra CAS latency - the per-chunk zero detect is an
// 8g-input NOR, simpler than the popcount majority DBI already performs
// at no cost.
type ZAD struct {
	chunk     int // beats per chunk: 1, 2, 4, or 8
	resilient bool
}

// NewZAD returns the skip-transfer codec with the given chunk granularity
// (beats per chunk; must divide the 8-beat burst) and mask mode.
func NewZAD(chunkBeats int, resilient bool) (ZAD, error) {
	switch chunkBeats {
	case 1, 2, 4, 8:
		return ZAD{chunk: chunkBeats, resilient: resilient}, nil
	}
	return ZAD{}, fmt.Errorf("code: zad chunk of %d beats does not divide BL8", chunkBeats)
}

// Name implements Codec: the default 4-beat granularity is plain "zad"
// ("zadr" resilient); other granularities carry theirs ("zad2", "zad8r").
func (z ZAD) Name() string {
	name := "zad"
	if z.chunk != 4 {
		name = fmt.Sprintf("zad%d", z.chunk)
	}
	if z.resilient {
		name += "r"
	}
	return name
}

// Beats implements Codec.
func (ZAD) Beats() int { return 8 }

// ExtraLatency implements Codec.
func (ZAD) ExtraLatency() int { return 0 }

// ChunkBeats returns the chunk granularity in beats.
func (z ZAD) ChunkBeats() int { return z.chunk }

// Resilient reports whether the skip mask is replicated and majority-voted.
func (z ZAD) Resilient() bool { return z.resilient }

// skipMask returns, for chip ch, a bitmask of its skipped chunks (bit i =
// chunk i, beats [i*g, (i+1)*g), is entirely zero).
func (z ZAD) skipMask(blk *bitblock.Block, ch int) uint8 {
	var mask uint8
	for i := 0; i < 8/z.chunk; i++ {
		allZero := true
		for beat := i * z.chunk; beat < (i+1)*z.chunk; beat++ {
			if blk[beat*bitblock.Chips+ch] != 0 {
				allZero = false
				break
			}
		}
		if allZero {
			mask |= 1 << i
		}
	}
	return mask
}

// Encode implements Codec.
func (z ZAD) Encode(blk *bitblock.Block) *bitblock.Burst { return encodeNew(z, blk) }

// EncodeInto implements Codec.
func (z ZAD) EncodeInto(blk *bitblock.Block, bu *bitblock.Burst) {
	bu.Reset(BusWidth, 8)
	var skip [bitblock.Chips]uint8
	for ch := range skip {
		skip[ch] = z.skipMask(blk, ch)
	}
	for beat := 0; beat < 8; beat++ {
		i := beat / z.chunk
		var lo, hi uint64
		for ch := 0; ch < bitblock.Chips; ch++ {
			skipped := skip[ch]>>i&1 == 1
			group := uint64(blk[beat*bitblock.Chips+ch])
			if skipped {
				group = 0xff // elided beats park at the free level
			}
			// The DBI pin carries the chunk's mask bit (1 = present) on the
			// chunk's first beat - on every beat of the chunk in resilient
			// mode - and idles high otherwise.
			maskBeat := z.resilient || beat == i*z.chunk
			if !maskBeat || !skipped {
				group |= 1 << DataPinsPerChip
			}
			orBeatBits(&lo, &hi, chipDataPin(ch, 0), group, PinsPerChip)
		}
		bu.SetBeatWords(beat, lo, hi)
	}
}

// CostZeros implements Codec: a present chunk costs its data's own
// zeros (mask bit and idle DBI beats are high, free); a skipped chunk
// costs only its transmitted mask-bit zeros - one, or g replicated copies
// in resilient mode.
func (z ZAD) CostZeros(blk *bitblock.Block) int {
	maskCost := 1
	if z.resilient {
		maskCost = z.chunk
	}
	cost := 0
	for ch := 0; ch < bitblock.Chips; ch++ {
		skip := z.skipMask(blk, ch)
		for i := 0; i < 8/z.chunk; i++ {
			if skip>>i&1 == 1 {
				cost += maskCost
				continue
			}
			for beat := i * z.chunk; beat < (i+1)*z.chunk; beat++ {
				cost += zeros8(blk[beat*bitblock.Chips+ch])
			}
		}
	}
	return cost
}

// Decode implements Codec. A skipped chunk's data beats are never read -
// the reconstruction is all zeros regardless of what the wire carried, the
// skip-transfer immunity the fault differential pins down. The mask
// sideband is the exposed surface: plain mode trusts its single bit;
// resilient mode majority-votes the g copies and reports an exact tie as
// corruption.
func (z ZAD) Decode(bu *bitblock.Burst) (bitblock.Block, error) {
	var blk bitblock.Block
	if err := checkDims(z.Name(), bu, 8); err != nil {
		return blk, err
	}
	if err := checkDriven(z.Name(), bu, true); err != nil {
		return blk, err
	}
	for ch := 0; ch < bitblock.Chips; ch++ {
		for i := 0; i < 8/z.chunk; i++ {
			present := true
			if z.resilient {
				ones := 0
				for beat := i * z.chunk; beat < (i+1)*z.chunk; beat++ {
					if bu.Bit(beat, chipDBIPin(ch)) {
						ones++
					}
				}
				if 2*ones == z.chunk {
					return blk, fmt.Errorf("code: %s chip %d chunk %d: mask vote split %d-%d",
						z.Name(), ch, i, ones, z.chunk-ones)
				}
				present = 2*ones > z.chunk
			} else {
				present = bu.Bit(i*z.chunk, chipDBIPin(ch))
			}
			if !present {
				continue // reconstruct as zeros; the wire beats are not read
			}
			for beat := i * z.chunk; beat < (i+1)*z.chunk; beat++ {
				blk[beat*bitblock.Chips+ch] = byte(bu.BeatBits(beat, chipDataPin(ch, 0), DataPinsPerChip))
			}
		}
	}
	return blk, nil
}
