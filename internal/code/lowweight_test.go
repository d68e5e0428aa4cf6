package code

import (
	"math/bits"
	"math/rand"
	"testing"

	"mil/internal/bitblock"
)

// This file referees the one low-weight-code construction behind Figure 7,
// optmem and vlwcN: the combinadic builder against a brute-force
// enumeration of the optimal scheme, the two bus layouts, and the
// frequency-ranked assignment.

// refTiers is the optimal-scheme reference (the arXiv 2303.06409
// construction: rank every k-bit word by zero count, keep the best 256):
// all 2^k words bucketed by zero count. Exponential in k - usable for
// k <= 12 in tests only.
func refTiers(k int) [][]uint32 {
	tiers := make([][]uint32, k+1)
	for w := uint32(0); w < 1<<k; w++ {
		z := k - bits.OnesCount32(w)
		tiers[z] = append(tiers[z], w)
	}
	return tiers
}

// TestVLWCAgainstOptimalReference is the referee of the shared builder.
// For every width it must produce 256 distinct in-width codewords under
// the weight bound, filling the zero-count tiers cheapest first (so the
// total transmitted zeros under any frequency ranking match the optimum),
// with an exact arithmetic rank <-> word inverse and a bus layout that
// round-trips. For k <= 12 the brute-force reference also pins the
// per-rank zero profile and the code's word set: every word outside it
// must be rejected. Finally optmem must be vlwc4's table codeword for
// codeword, laid on all nine pins.
func TestVLWCAgainstOptimalReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var freq [256]uint64
	for i := range freq {
		freq[i] = uint64(256 - i)
	}
	for _, tc := range []struct{ k, bound int }{
		{8, 8}, {9, 4}, {10, 4}, {11, 4}, {12, 3}, {13, 3}, {14, 3}, {15, 3}, {16, 3},
		{17, 3}, {18, 3}, {19, 3}, {20, 3}, {21, 3}, {22, 3}, {23, 2}, {24, 2},
	} {
		c, err := NewLowWeightCode(tc.k, &freq)
		if err != nil {
			t.Fatal(err)
		}
		if c.WeightBound() != tc.bound {
			t.Errorf("k=%d: weight bound %d, want %d", tc.k, c.WeightBound(), tc.bound)
		}
		inCode := map[uint32]bool{}
		profile := make([]int, 0, 256) // zeros per rank
		for rank := 0; rank < 256; rank++ {
			word := c.wordOfRank(rank)
			z := tc.k - bits.OnesCount32(word)
			if word>>tc.k != 0 || inCode[word] || z > tc.bound {
				t.Fatalf("k=%d rank %d: word %#x out of width, repeated or over the bound", tc.k, rank, word)
			}
			if rank > 0 && z < profile[rank-1] {
				t.Fatalf("k=%d rank %d: %d zeros after %d - tiers out of order", tc.k, rank, z, profile[rank-1])
			}
			inCode[word] = true
			profile = append(profile, z)
			if back := c.rankOfWord(word); back != rank {
				t.Fatalf("k=%d: rankOfWord(wordOfRank(%d)) = %d", tc.k, rank, back)
			}
			b := c.byteOf[rank]
			if got, ok := c.DecodeWord(c.EncodeByte(b)); c.EncodeByte(b) != word || !ok || got != b {
				t.Fatalf("k=%d rank %d: byte %#02x encodes to %#x, decodes to %#02x (%v)", tc.k, rank, b, c.EncodeByte(b), got, ok)
			}
		}
		// Every tier under the bound is taken whole.
		for z := 0; z < tc.bound; z++ {
			n := 0
			for _, pz := range profile {
				if pz == z {
					n++
				}
			}
			if n != int(lwcBinom[tc.k][z]) {
				t.Errorf("k=%d: %d words with %d zeros, want the whole tier of %d", tc.k, n, z, lwcBinom[tc.k][z])
			}
		}
		if _, ok := c.DecodeWord(1 << tc.k); ok {
			t.Errorf("k=%d: a word wider than k decoded", tc.k)
		}
		if tc.k <= 12 {
			rank := 0
			for z, tier := range refTiers(tc.k) {
				for _, w := range tier {
					if rank < 256 && profile[rank] != z {
						t.Fatalf("k=%d rank %d: %d zeros, optimal reference has %d", tc.k, rank, profile[rank], z)
					}
					rank++
					if _, ok := c.DecodeWord(w); ok != inCode[w] {
						t.Fatalf("k=%d: DecodeWord(%#x) ok=%v, in code %v", tc.k, w, ok, inCode[w])
					}
				}
			}
		}
		for n := 0; n < 20; n++ {
			blk := skewedBlock(rng)
			if out, err := c.Decode(c.Encode(&blk)); err != nil || out != blk {
				t.Fatalf("k=%d block %d: round-trip failed (%v)", tc.k, n, err)
			}
		}
	}

	o := DefaultOptMem()
	v, err := NewVLWC(4)
	if err != nil {
		t.Fatal(err)
	}
	if o.K() != 9 || v.K() != 9 || o.Beats() != 8 || o.ExtraLatency() != 0 || v.Beats() != 10 || v.ExtraLatency() != 1 {
		t.Fatalf("optmem k=%d BL%d+%d, vlwc4 k=%d BL%d+%d; want k=9 BL8+0 and BL10+1",
			o.K(), o.Beats(), o.ExtraLatency(), v.K(), v.Beats(), v.ExtraLatency())
	}
	for b := 0; b < 256; b++ {
		if o.EncodeByte(byte(b)) != v.EncodeByte(byte(b)) {
			t.Errorf("byte %#02x: optmem word %#03x, vlwc4 word %#03x", b, o.EncodeByte(byte(b)), v.EncodeByte(byte(b)))
		}
	}
	// The optimal packing: optmem's words are exactly the nine-bit words
	// with at most four zeros, and each decodes to its own byte.
	for w := uint32(0); w < 1<<9; w++ {
		b, ok := o.DecodeWord(w)
		if inCode := bits.OnesCount32(w) >= 5; ok != inCode || ok && o.EncodeByte(b) != w {
			t.Fatalf("optmem DecodeWord(%#03x) = %#02x, %v; want in code %v", w, b, ok, inCode)
		}
	}
	// Sparse prior: the all-zero byte gets the free all-ones codeword -
	// one zero cheaper than under DBI, which pays for its flag bit.
	if w := o.EncodeByte(0); w != 0x1ff {
		t.Errorf("optmem byte 0x00 word = %#03x, want the all-ones 0x1ff", w)
	}
	// Like DBI, each chip's 9-pin group in beat b carries the codeword of
	// the byte it transmits during that beat.
	blk := skewedBlock(rng)
	bu := o.Encode(&blk)
	for beat := 0; beat < 8; beat++ {
		for ch := 0; ch < bitblock.Chips; ch++ {
			if got, want := bu.BeatBits(beat, chipDataPin(ch, 0), PinsPerChip), uint64(o.EncodeByte(blk[beat*bitblock.Chips+ch])); got != want {
				t.Fatalf("optmem chip %d beat %d: group %#03x, want %#03x", ch, beat, got, want)
			}
		}
	}
}

func TestStaticLWCWidthValidation(t *testing.T) {
	var freq [256]uint64
	for _, k := range []int{7, 25} {
		if _, err := NewLowWeightCode(k, &freq); err == nil {
			t.Errorf("k=%d accepted", k)
		}
	}
}

func TestStaticLWCMonotoneInWidth(t *testing.T) {
	// Figure 7's shape: more codeword bits means fewer weighted zeros.
	var freq [256]uint64
	rng := rand.New(rand.NewSource(31))
	for i := range freq {
		freq[i] = uint64(rng.Intn(1000))
	}
	prev := ^uint64(0)
	for k := 9; k <= 17; k++ {
		c, err := NewLowWeightCode(k, &freq)
		if err != nil {
			t.Fatal(err)
		}
		z := c.WeightedZeros(&freq)
		if z > prev {
			t.Fatalf("k=%d: zeros %d exceed k=%d's %d", k, z, k-1, prev)
		}
		prev = z
	}
}

func TestStaticLWC17MatchesWeightBound(t *testing.T) {
	// (8,17) has enough high-weight words that no codeword needs more than
	// 3 zeros - the same bound as the algorithmic 3-LWC.
	var freq [256]uint64
	c, err := NewLowWeightCode(17, &freq)
	if err != nil {
		t.Fatal(err)
	}
	if c.WeightBound() > 3 {
		t.Fatalf("(8,17) max zeros = %d, want <= 3", c.WeightBound())
	}
}

func TestStaticLWCAssignsCheapWordsToFrequentBytes(t *testing.T) {
	var freq [256]uint64
	freq[0x42] = 1_000_000 // overwhelmingly common
	c, err := NewLowWeightCode(9, &freq)
	if err != nil {
		t.Fatal(err)
	}
	if w := c.EncodeByte(0x42); w != 0x1ff {
		t.Fatalf("most frequent byte got word %03x, want all-ones 1ff", w)
	}
}

// TestOptMemFrequencyAssignment lays a frequency-ranked k=9 table out as
// optmem: the ranking decides which byte gets which tier, and the
// instance still round-trips.
func TestOptMemFrequencyAssignment(t *testing.T) {
	var freq [256]uint64
	freq[0xa5] = 1000
	freq[0x17] = 10
	c, err := NewLowWeightCode(9, &freq)
	if err != nil {
		t.Fatal(err)
	}
	c.layOut("optmem", PinsPerChip, 0)
	if w := c.EncodeByte(0xa5); w != 0x1ff {
		t.Errorf("most frequent byte got word %#03x, want the zero-cost 0x1ff", w)
	}
	if z := 9 - bits.OnesCount32(c.EncodeByte(0x17)); z != 1 {
		t.Errorf("second byte's word carries %d zeros, want the next tier's 1", z)
	}
	var blk bitblock.Block
	if out, err := c.Decode(c.Encode(&blk)); err != nil || out != blk {
		t.Errorf("frequency-ranked instance does not round-trip: %v", err)
	}
}

func TestVLWCWidths(t *testing.T) {
	want := map[int]struct{ k, beats int }{
		2: {23, 24}, 3: {12, 12}, 4: {9, 10}, 8: {8, 8},
	}
	for w, dims := range want {
		c, err := NewVLWC(w)
		if err != nil {
			t.Fatalf("NewVLWC(%d): %v", w, err)
		}
		if c.K() != dims.k || c.Beats() != dims.beats {
			t.Errorf("w=%d: k=%d beats=%d, want k=%d beats=%d", w, c.K(), c.Beats(), dims.k, dims.beats)
		}
	}
	for _, w := range []int{0, 1, 9} {
		if _, err := NewVLWC(w); err == nil {
			t.Errorf("NewVLWC(%d) accepted an out-of-range weight bound", w)
		}
	}
}

func TestVLWCRoundTripAllBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, w := range []int{2, 3, 4, 5, 8} {
		c, err := NewVLWC(w)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < 200; n++ {
			blk := skewedBlock(rng)
			out, err := c.Decode(c.Encode(&blk))
			if err != nil || out != blk {
				t.Fatalf("w=%d block %d: round-trip failed (%v)", w, n, err)
			}
		}
	}
}
