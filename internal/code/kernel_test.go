package code

import (
	"math/rand"
	"testing"

	"mil/internal/bitblock"
)

// This file is the referee for the word-parallel kernel layer: the cost
// probes (Codec.CostZeros) must equal encode-then-count exactly, the
// scratch encode path (Codec.EncodeInto) must be bit-identical to the
// allocating path and allocation-free, and the word-parallel Burst counters
// must agree with deliberately naive bit-at-a-time reference
// implementations.

// refCountZeros is the pre-kernel bit-at-a-time CountZeros.
func refCountZeros(bu *bitblock.Burst) int {
	z := 0
	for b := 0; b < bu.Beats; b++ {
		for p := 0; p < bu.Width; p++ {
			if bu.Driven(p) && !bu.Bit(b, p) {
				z++
			}
		}
	}
	return z
}

// refTransitions is the pre-kernel bit-at-a-time Transitions: toggles on
// driven pins only, undriven pins hold their previous level.
func refTransitions(bu *bitblock.Burst, s *bitblock.BusState) int {
	n := 0
	for b := 0; b < bu.Beats; b++ {
		for p := 0; p < bu.Width; p++ {
			if !bu.Driven(p) {
				continue
			}
			v := bu.Bit(b, p)
			if v != s.Pin(p) {
				n++
			}
			s.SetPin(p, v)
		}
	}
	return n
}

// skewedBlock mixes sparse, dense, and uniform bytes so the codecs' mode
// decisions (inversion thresholds, xorbi, CAFO flips) all get exercised.
func skewedBlock(rng *rand.Rand) bitblock.Block {
	var blk bitblock.Block
	for i := range blk {
		switch rng.Intn(4) {
		case 0:
			blk[i] = 0x00
		case 1:
			blk[i] = 0xff
		default:
			blk[i] = byte(rng.Uint32())
		}
	}
	return blk
}

// TestCostZerosEquivalence is the acceptance check for the probe path: for
// every registry codec, CostZeros must equal Encode-then-CountZeros exactly
// on >= 1000 random blocks. Any drift here would silently change the MiL
// write-optimization decisions.
func TestCostZerosEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, c := range allCodecs(t) {
		for n := 0; n < 1200; n++ {
			blk := skewedBlock(rng)
			probe := CostZeros(c, &blk)
			actual := c.Encode(&blk).CountZeros()
			if probe != actual {
				t.Fatalf("%s block %d: CostZeros=%d, Encode.CountZeros=%d", c.Name(), n, probe, actual)
			}
		}
	}
}

// TestEncodeIntoMatchesEncode proves the scratch path bit-identical to the
// allocating path: same dims, same driven mask, same bits every beat, with
// one scratch burst reused (dirty) across blocks and codecs of different
// shapes.
func TestEncodeIntoMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var scratch bitblock.Burst
	for n := 0; n < 300; n++ {
		blk := skewedBlock(rng)
		for _, c := range allCodecs(t) {
			c.EncodeInto(&blk, &scratch)
			got, want := &scratch, c.Encode(&blk)
			if got.Width != want.Width || got.Beats != want.Beats {
				t.Fatalf("%s: dims %dx%d, want %dx%d", c.Name(), got.Width, got.Beats, want.Width, want.Beats)
			}
			gl, gh := got.DrivenWords()
			wl, wh := want.DrivenWords()
			if gl != wl || gh != wh {
				t.Fatalf("%s: driven %x,%x want %x,%x", c.Name(), gl, gh, wl, wh)
			}
			for b := 0; b < got.Beats; b++ {
				gl, gh = got.BeatWords(b)
				wl, wh = want.BeatWords(b)
				if gl != wl || gh != wh {
					t.Fatalf("%s beat %d: %016x,%016x want %016x,%016x", c.Name(), b, gl, gh, wl, wh)
				}
			}
		}
	}
}

// TestSteadyStateZeroAllocs pins the PR's allocation target: once the
// scratch burst has grown to its final shape, EncodeInto and CostZeros must
// not touch the heap.
func TestSteadyStateZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	blk := skewedBlock(rng)
	for _, c := range allCodecs(t) {
		c := c
		var scratch bitblock.Burst
		EncodeInto(c, &blk, &scratch) // grow the scratch once
		if n := testing.AllocsPerRun(100, func() {
			EncodeInto(c, &blk, &scratch)
		}); n != 0 {
			t.Errorf("%s: EncodeInto allocates %.1f/op, want 0", c.Name(), n)
		}
		if n := testing.AllocsPerRun(100, func() {
			CostZeros(c, &blk)
		}); n != 0 {
			t.Errorf("%s: CostZeros allocates %.1f/op, want 0", c.Name(), n)
		}
	}
}

// FuzzKernelEquivalence differentially fuzzes the word-parallel Burst
// kernels (CountZeros, Transitions) against the bit-at-a-time references
// above across arbitrary widths (including > 64 pins), beat counts, driven
// masks, and initial bus states, and the codec cost probes against
// encode-then-count on the fuzzed payload.
func FuzzKernelEquivalence(f *testing.F) {
	f.Add(uint8(71), uint8(7), ^uint64(0), ^uint64(0), uint64(0), []byte("seed payload"))
	f.Add(uint8(63), uint8(1), ^uint64(0), uint64(0), uint64(5), []byte{0x00, 0xff, 0xa5})
	f.Add(uint8(127), uint8(15), uint64(0xdeadbeef), uint64(0x1234), ^uint64(0), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(4), uint8(3), uint64(0), uint64(0), uint64(0), []byte{})            // all pins undriven
	f.Add(uint8(8), uint8(9), uint64(0x100), uint64(0), uint64(0xff), []byte{0x80}) // DBI-style parked pins
	f.Fuzz(func(t *testing.T, w, nb uint8, dlo, dhi, state uint64, payload []byte) {
		width := 1 + int(w)%128
		beats := 1 + int(nb)%16
		bu := bitblock.NewBurst(width, beats)
		for p := 0; p < width; p++ {
			m := dlo
			if p >= 64 {
				m = dhi
			}
			bu.SetDriven(p, m>>(p%64)&1 == 1)
		}
		bit := 0
		for b := 0; b < beats; b++ {
			for p := 0; p < width; p++ {
				if len(payload) > 0 && payload[bit%len(payload)]>>(bit%8)&1 == 1 {
					bu.SetBit(b, p, true)
				}
				bit++
			}
		}

		if got, want := bu.CountZeros(), refCountZeros(bu); got != want {
			t.Fatalf("CountZeros %dx%d = %d, reference %d", width, beats, got, want)
		}

		var fast, slow bitblock.BusState
		for p := 0; p < width; p++ {
			v := state>>(p%64)&1 == 1
			fast.SetPin(p, v)
			slow.SetPin(p, v)
		}
		if got, want := bu.Transitions(&fast), refTransitions(bu, &slow); got != want {
			t.Fatalf("Transitions %dx%d = %d, reference %d", width, beats, got, want)
		}
		for p := 0; p < width; p++ {
			if fast.Pin(p) != slow.Pin(p) {
				t.Fatalf("bus state diverged at pin %d", p)
			}
		}

		var blk bitblock.Block
		copy(blk[:], payload)
		for _, name := range Names() {
			c, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			if probe, actual := CostZeros(c, &blk), c.Encode(&blk).CountZeros(); probe != actual {
				t.Fatalf("%s: CostZeros=%d, Encode.CountZeros=%d", name, probe, actual)
			}
		}
	})
}
