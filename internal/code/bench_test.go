package code

import (
	"math/rand"
	"testing"

	"mil/internal/bitblock"
)

// Per-codec encode/decode micro-benchmarks over the whole registry. The
// codecs sit on the simulator's innermost loop (every column command encodes
// once and decodes once), so their cost dominates sweep wall-clock;
// perfbench times the same three kernels per codec on workload data
// (code.<codec>.{encode,decode,costzeros}_ns) next to the end-to-end sweep.

// benchBlocks returns a fixed pool of pseudorandom cache lines; random data
// is the codecs' worst case (no sparsity to exploit, every coset searched).
func benchBlocks(n int) []bitblock.Block {
	rng := rand.New(rand.NewSource(0x5eed))
	out := make([]bitblock.Block, n)
	for i := range out {
		rng.Read(out[i][:])
	}
	return out
}

func BenchmarkEncode(b *testing.B) {
	blocks := benchBlocks(64)
	for _, name := range Names() {
		c, err := ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(blocks[0])))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bu := c.Encode(&blocks[i%len(blocks)])
				if bu.Beats != c.Beats() {
					b.Fatalf("%s: %d-beat burst, want %d", name, bu.Beats, c.Beats())
				}
			}
		})
	}
}

// BenchmarkEncodeInto is the steady-state encode path the phys run: one
// scratch burst reused across operations. allocs/op must report 0.
func BenchmarkEncodeInto(b *testing.B) {
	blocks := benchBlocks(64)
	for _, name := range Names() {
		c, err := ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			var scratch bitblock.Burst
			EncodeInto(c, &blocks[0], &scratch) // grow the scratch outside the timer
			b.SetBytes(int64(len(blocks[0])))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bu := EncodeInto(c, &blocks[i%len(blocks)], &scratch)
				if bu.Beats != c.Beats() {
					b.Fatalf("%s: %d-beat burst, want %d", name, bu.Beats, c.Beats())
				}
			}
		})
	}
}

// BenchmarkCostZeros measures the arithmetic cost probe the write
// optimization runs per candidate codec; it must be allocation-free and
// cheaper than encoding.
func BenchmarkCostZeros(b *testing.B) {
	blocks := benchBlocks(64)
	for _, name := range Names() {
		c, err := ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(blocks[0])))
			b.ReportAllocs()
			acc := 0
			for i := 0; i < b.N; i++ {
				acc += CostZeros(c, &blocks[i%len(blocks)])
			}
			if acc < 0 {
				b.Fatal("impossible zero count")
			}
		})
	}
}

func BenchmarkDecode(b *testing.B) {
	blocks := benchBlocks(64)
	for _, name := range Names() {
		c, err := ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		// Encode outside the timed loop so Decode is measured alone.
		bursts := make([]*bitblock.Burst, len(blocks))
		for i := range blocks {
			bursts[i] = c.Encode(&blocks[i])
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(blocks[0])))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				j := i % len(bursts)
				got, err := c.Decode(bursts[j])
				if err != nil || got != blocks[j] {
					b.Fatalf("%s: round trip failed: %v", name, err)
				}
			}
		})
	}
}
