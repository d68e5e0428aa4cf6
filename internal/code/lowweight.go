package code

import (
	"fmt"
	"math/bits"
	"sort"

	"mil/internal/bitblock"
)

// LowWeightCode is the optimal static (8,k) low-weight code: each of the
// 256 byte values maps to one of the 256 k-bit words with the fewest
// zeros, and the cheapest words go to the most frequent bytes, so no
// memoryless (8,k) code transmits fewer zeros for the byte distribution it
// was built from. It is the one construction behind three users that
// differ only in constants:
//
//   - the Figure 7 potential study (Section 3.2) and examples/buscoding,
//     which read the table alone for k in [8,24];
//   - vlwcN, the weight-bounded code in the style of Valentini and Chiani
//     (arXiv 2303.06409): the smallest k whose table keeps every codeword
//     at <= N zeros, laid on each chip's 8 data pins with the DBI pins
//     parked, BL = k rounded up to even, and one CAS cycle for the
//     encoder pipeline (MiLC-class, Table 4);
//   - optmem, the optimal memoryless bus encoding of Chee, Colbourn et al.
//     (arXiv 0712.2640): the k=9 table on all 9 pins of each chip, the
//     wire budget DBI already pays, at BL8 with no extra CAS cycle. Its
//     256 words are exactly the 9-bit words with at most four zeros
//     (1+9+36+84+126 = 256), a perfect packing of the weight-<=4 sphere.
//
// Valentini and Chiani show the enumerative coder is the optimal scheme,
// so the mapping is computed arithmetically: codeword rank r <-> word is a
// combinadic conversion (a handful of binomial-coefficient additions), not
// a 2^k table. Ranks fill the zero-count tiers in order and, within a
// tier, the zero positions in colexicographic order; rank 0 is the
// all-ones word. The instance is immutable after construction and safe to
// share.
type LowWeightCode struct {
	k int // codeword width in bits
	w int // weight bound: the most zeros any codeword transmits

	enc    [256]uint32 // byte -> k-bit codeword
	cost   [256]uint8  // byte -> zeros its codeword transmits
	byteOf [256]uint8  // codeword rank -> byte (decode side)
	cum    [10]int     // cum[z] = number of codewords with fewer than z zeros, z <= w+1

	// Bus layout: each chip streams its 8 codewords over its first pins
	// pins, padded high (free on a POD interface) to beats.
	name  string
	pins  int // DataPinsPerChip (DBI parked) or PinsPerChip
	beats int
	pad   int // per-lane pad bits
	extra int // CAS cycles added to tCL
}

// lwcMaxWidth bounds k so a lane (8 codewords + pad) fits the 192-bit
// laneCW and the binomial table.
const lwcMaxWidth = 24

// lwcBinom[n][r] = C(n,r) for n <= 24, r <= 9: an init-time constant
// Pascal triangle sized for the widest code.
var lwcBinom = func() [lwcMaxWidth + 1][10]uint32 {
	var t [lwcMaxWidth + 1][10]uint32
	for n := 0; n <= lwcMaxWidth; n++ {
		t[n][0] = 1
		for r := 1; r <= 9 && r <= n; r++ {
			t[n][r] = t[n-1][r-1] + t[n-1][r]
		}
	}
	return t
}()

// byteOrderByFrequency ranks the 256 byte values most-frequent-first for
// codeword assignment: by descending count for a real histogram (ties by
// value), or - for a nil or all-zero histogram - by the sparse-data prior
// the paper's traffic study motivates: descending zero count, so 0x00
// outranks everything and dense bytes rank last.
func byteOrderByFrequency(freq *[256]uint64) [256]int {
	var order [256]int
	for i := range order {
		order[i] = i
	}
	empty := true
	if freq != nil {
		for _, f := range freq {
			if f != 0 {
				empty = false
				break
			}
		}
	}
	if empty {
		sort.SliceStable(order[:], func(i, j int) bool {
			return zeros8(byte(order[i])) > zeros8(byte(order[j]))
		})
		return order
	}
	sort.SliceStable(order[:], func(i, j int) bool {
		return freq[order[i]] > freq[order[j]]
	})
	return order
}

// NewLowWeightCode builds the optimal (8,k) code for k in [8,24] and the
// byte histogram freq (nil or all-zero selects the sparse-data prior). The
// result is laid on the data pins like vlwcN and named "lwc(8,k)".
func NewLowWeightCode(k int, freq *[256]uint64) (*LowWeightCode, error) {
	if k < 8 || k > lwcMaxWidth {
		return nil, fmt.Errorf("code: low-weight code width %d outside [8,%d]", k, lwcMaxWidth)
	}
	c := &LowWeightCode{k: k}
	// The weight bound is the zero count whose tier completes 256 words.
	for z := 0; c.cum[z] < 256; z++ {
		c.cum[z+1] = c.cum[z] + int(lwcBinom[k][z])
		c.w = z
	}
	for rank, b := range byteOrderByFrequency(freq) {
		word := c.wordOfRank(rank)
		c.enc[b] = word
		c.cost[b] = uint8(k - bits.OnesCount32(word))
		c.byteOf[rank] = byte(b)
	}
	c.layOut(fmt.Sprintf("lwc(8,%d)", k), DataPinsPerChip, 1)
	return c, nil
}

// layOut sets the bus layout: the burst is the shortest even beat count
// whose pins-wide lane holds the chip's 8 codewords.
func (c *LowWeightCode) layOut(name string, pins, extra int) {
	c.name, c.pins, c.extra = name, pins, extra
	c.beats = (8*c.k + pins - 1) / pins
	c.beats += c.beats % 2
	c.pad = c.beats*pins - 8*c.k
}

// NewVLWC builds vlwcN for weight bound w in [2,8]: the smallest width
// whose table fits 256 values under the bound,
//
//	w=2 -> k=23   w=3 -> k=12 (the registry default)   w=4 -> k=9   w=8 -> k=8
//
// so the default w=3 code is a BL12 burst - the Figure 20 intermediate
// length - with a hard 3-zeros-per-byte guarantee that MiLC's
// opportunistic coding cannot give.
func NewVLWC(w int) (*LowWeightCode, error) {
	if w < 2 || w > 8 {
		return nil, fmt.Errorf("code: vlwc weight bound %d outside [2,8]", w)
	}
	k := 8
	for {
		fit := 0
		for i := 0; i <= w; i++ {
			fit += int(lwcBinom[k][i])
		}
		if fit >= 256 {
			break
		}
		k++
	}
	c, err := NewLowWeightCode(k, nil)
	if err != nil {
		return nil, err
	}
	c.name = fmt.Sprintf("vlwc%d", w)
	if w == 3 {
		c.name = "vlwc"
	}
	return c, nil
}

// defaultOptMem and defaultVLWC are the shared sparse-prior instances
// ByName hands out.
var (
	defaultOptMem = func() *LowWeightCode {
		c, err := NewLowWeightCode(PinsPerChip, nil)
		if err != nil {
			panic(err)
		}
		c.layOut("optmem", PinsPerChip, 0)
		return c
	}()
	defaultVLWC = func() *LowWeightCode {
		c, err := NewVLWC(3)
		if err != nil {
			panic(err)
		}
		return c
	}()
)

// DefaultOptMem returns the shared optmem instance: the k=9 table with
// the sparse-data prior on all 9 pins of each chip (BL8, +0 CAS). Like
// DBI, each chip's 9-bit group for beat b is the codeword of the byte it
// transmits during that beat, and 0x00 gets the all-ones word - one zero
// cheaper than DBI's inverted 0x00, which still pays for its flag bit.
func DefaultOptMem() *LowWeightCode { return defaultOptMem }

// DefaultVLWC returns the shared w=3 instance (the registry default).
func DefaultVLWC() *LowWeightCode { return defaultVLWC }

// wordOfRank is the enumerative encoder: rank r selects zero count z (the
// tier the rank falls in) and combination index j within the tier, and the
// j-th z-subset of bit positions (colexicographic combinadic) carries the
// zeros.
func (c *LowWeightCode) wordOfRank(r int) uint32 {
	z := 0
	for z < c.w && c.cum[z+1] <= r {
		z++
	}
	j := uint32(r - c.cum[z])
	word := uint32(1)<<c.k - 1
	for i := z; i >= 1; i-- {
		p := i - 1
		for p+1 <= lwcMaxWidth && lwcBinom[p+1][i] <= j {
			p++
		}
		word &^= 1 << p
		j -= lwcBinom[p][i]
	}
	return word
}

// rankOfWord inverts wordOfRank: the zero positions p_1 < ... < p_z rank
// as cum[z] + sum_i C(p_i, i). Words wider than k or over the weight bound
// report -1; in-bound words always rank, but ranks past 255 are outside
// the code.
func (c *LowWeightCode) rankOfWord(word uint32) int {
	if word>>c.k != 0 {
		return -1
	}
	zeros := ^word & (1<<c.k - 1)
	z := bits.OnesCount32(zeros)
	if z > c.w {
		return -1
	}
	r := c.cum[z]
	for i := 1; zeros != 0; i++ {
		p := bits.TrailingZeros32(zeros)
		zeros &= zeros - 1
		r += int(lwcBinom[p][i])
	}
	return r
}

// K returns the codeword width in bits.
func (c *LowWeightCode) K() int { return c.k }

// WeightBound returns the most zeros any codeword transmits.
func (c *LowWeightCode) WeightBound() int { return c.w }

// EncodeByte returns the k-bit codeword for b.
func (c *LowWeightCode) EncodeByte(b byte) uint32 { return c.enc[b] }

// DecodeWord returns the byte a k-bit codeword stands for, and whether the
// word is inside the code at all (the rest of the word space is not, which
// is what makes corruption detectable).
func (c *LowWeightCode) DecodeWord(word uint32) (byte, bool) {
	r := c.rankOfWord(word)
	if r < 0 || r >= 256 {
		return 0, false
	}
	return c.byteOf[r], true
}

// WeightedZeros returns the total transmitted zeros for the histogram freq
// under this code; used to produce Figure 7's series.
func (c *LowWeightCode) WeightedZeros(freq *[256]uint64) uint64 {
	var total uint64
	for b, f := range freq {
		total += f * uint64(c.cost[b])
	}
	return total
}

// Name implements Codec.
func (c *LowWeightCode) Name() string { return c.name }

// Beats implements Codec.
func (c *LowWeightCode) Beats() int { return c.beats }

// ExtraLatency implements Codec.
func (c *LowWeightCode) ExtraLatency() int { return c.extra }

// Encode implements Codec.
func (c *LowWeightCode) Encode(blk *bitblock.Block) *bitblock.Burst { return encodeNew(c, blk) }

// EncodeInto implements Codec.
func (c *LowWeightCode) EncodeInto(blk *bitblock.Block, bu *bitblock.Burst) {
	bu.Reset(BusWidth, c.beats)
	if c.pins == DataPinsPerChip {
		parkDBIPins(bu)
	}
	var cws [bitblock.Chips]laneCW
	for ch := range cws {
		for b := 0; b < 8; b++ {
			cws[ch].append(uint64(c.enc[blk[b*bitblock.Chips+ch]]), c.k)
		}
		if c.pad > 0 {
			cws[ch].append(1<<c.pad-1, c.pad)
		}
	}
	storeLaneCodewords(bu, &cws, c.beats, c.pins)
}

// CostZeros implements Codec: 64 table lookups; the pad bits are high and
// cost nothing.
func (c *LowWeightCode) CostZeros(blk *bitblock.Block) int {
	z := 0
	for _, b := range blk {
		z += int(c.cost[b])
	}
	return z
}

// Decode implements Codec, running the arithmetic decoder: each word's
// zero positions rank back to a codeword index. Words over the weight
// bound or ranking past the 256 assigned codewords are outside the code
// and report corruption.
func (c *LowWeightCode) Decode(bu *bitblock.Burst) (bitblock.Block, error) {
	var blk bitblock.Block
	if err := checkDims(c.name, bu, c.beats); err != nil {
		return blk, err
	}
	if err := checkDriven(c.name, bu, c.pins == PinsPerChip); err != nil {
		return blk, err
	}
	var cws [bitblock.Chips]laneCW
	loadLaneCodewords(bu, &cws, c.beats, c.pins)
	for ch := range cws {
		for b := 0; b < 8; b++ {
			word := uint32(cws[ch].uint64(b*c.k, c.k))
			d, ok := c.DecodeWord(word)
			if !ok {
				return blk, fmt.Errorf("code: %s chip %d byte %d: word %#x outside the code", c.name, ch, b, word)
			}
			blk[b*bitblock.Chips+ch] = d
		}
	}
	return blk, nil
}

// RawZeros returns the total zeros of the uncoded bytes for freq, the
// normalization denominator of Figure 7.
func RawZeros(freq *[256]uint64) uint64 {
	var total uint64
	for b, f := range freq {
		total += f * uint64(zeros8(byte(b)))
	}
	return total
}

// DBIZeros returns the total transmitted zeros (9 wires per byte) under
// DBI for freq, Figure 7's "DBI" series.
func DBIZeros(freq *[256]uint64) uint64 {
	var total uint64
	for b, f := range freq {
		wire, bit := dbiEncodeByte(byte(b))
		z := uint64(zeros8(wire))
		if !bit {
			z++
		}
		total += f * z
	}
	return total
}
