package milcore

import (
	"math/rand"
	"testing"

	"mil/internal/bitblock"
	"mil/internal/code"
	"mil/internal/dram"
	"mil/internal/memctrl"
)

// fakeLookahead returns a fixed ready-count regardless of x, recording the
// distance it was asked about.
type fakeLookahead struct {
	ready  int
	askedX int
}

func (f *fakeLookahead) ColumnReadyWithin(x int) int {
	f.askedX = x
	return f.ready
}

func TestNewDefaults(t *testing.T) {
	p, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "mil" {
		t.Fatalf("name %q", p.Name())
	}
	if p.LookaheadX() != DefaultLookahead {
		t.Fatalf("X = %d", p.LookaheadX())
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(WithLookahead(-1)); err == nil {
		t.Error("negative X accepted")
	}
	if _, err := New(WithCodes(code.MiLC{}, code.LWC3{})); err == nil {
		t.Error("wide shorter than base accepted")
	}
	if _, err := New(WithCodes(nil, nil)); err == nil {
		t.Error("nil codecs accepted")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNew(WithLookahead(-5))
}

func TestChooseWideWhenBusIdle(t *testing.T) {
	p := MustNew()
	la := &fakeLookahead{ready: 1} // only the scheduled command itself
	if got := p.Choose(false, nil, la); got.Name() != "lwc3" {
		t.Fatalf("idle bus chose %s, want lwc3", got.Name())
	}
	if la.askedX != DefaultLookahead {
		t.Fatalf("asked X=%d, want %d", la.askedX, DefaultLookahead)
	}
}

func TestChooseBaseWhenCommandsPending(t *testing.T) {
	p := MustNew()
	la := &fakeLookahead{ready: 2}
	if got := p.Choose(false, nil, la); got.Name() != "milc" {
		t.Fatalf("busy bus chose %s, want milc", got.Name())
	}
}

func TestLookaheadOverride(t *testing.T) {
	p := MustNew(WithLookahead(14))
	la := &fakeLookahead{ready: 1}
	p.Choose(false, nil, la)
	if la.askedX != 14 {
		t.Fatalf("asked X=%d, want 14", la.askedX)
	}
}

func TestWriteOptimizationPicksSparserCode(t *testing.T) {
	p := MustNew()
	la := &fakeLookahead{ready: 1} // wide allowed

	// Highly row-correlated data: MiLC compresses to near-zero zeros while
	// 3-LWC still pays its fixed floor; the optimizer must pick MiLC.
	var corr bitblock.Block
	for i := range corr {
		corr[i] = 0xb7
	}
	milcZ := code.MiLC{}.Encode(&corr).CountZeros()
	lwcZ := code.LWC3{}.Encode(&corr).CountZeros()
	if milcZ > lwcZ {
		t.Skipf("fixture assumption broken: milc %d > lwc %d", milcZ, lwcZ)
	}
	if got := p.Choose(true, &corr, la); got.Name() != "milc" {
		t.Fatalf("correlated write chose %s (milc %d vs lwc3 %d zeros)", got.Name(), milcZ, lwcZ)
	}

	// Uncorrelated dense-zero data favors 3-LWC's hard 3-zeros bound.
	var rnd bitblock.Block
	rng := rand.New(rand.NewSource(5))
	rng.Read(rnd[:])
	milcZ = code.MiLC{}.Encode(&rnd).CountZeros()
	lwcZ = code.LWC3{}.Encode(&rnd).CountZeros()
	if lwcZ >= milcZ {
		t.Skipf("fixture assumption broken: lwc %d >= milc %d", lwcZ, milcZ)
	}
	if got := p.Choose(true, &rnd, la); got.Name() != "lwc3" {
		t.Fatalf("random write chose %s (milc %d vs lwc3 %d zeros)", got.Name(), milcZ, lwcZ)
	}
}

func TestWriteOptimizationNotAppliedToReads(t *testing.T) {
	p := MustNew()
	la := &fakeLookahead{ready: 1}
	// Reads cannot be inspected (Section 4.6): the wide code is used even
	// though the data would favor MiLC.
	var corr bitblock.Block
	for i := range corr {
		corr[i] = 0xb7
	}
	if got := p.Choose(false, &corr, la); got.Name() != "lwc3" {
		t.Fatalf("read chose %s, want lwc3", got.Name())
	}
}

func TestWithoutWriteOptimize(t *testing.T) {
	p := MustNew(WithoutWriteOptimize())
	la := &fakeLookahead{ready: 1}
	var corr bitblock.Block
	for i := range corr {
		corr[i] = 0xb7
	}
	if got := p.Choose(true, &corr, la); got.Name() != "lwc3" {
		t.Fatalf("unoptimized write chose %s, want lwc3", got.Name())
	}
}

func TestStretchedRoundTripAndDims(t *testing.T) {
	for _, total := range []int{10, 12, 14, 16} {
		s, err := NewStretched(code.MiLC{}, total)
		if err != nil {
			t.Fatal(err)
		}
		if s.Beats() != total {
			t.Fatalf("beats = %d", s.Beats())
		}
		if s.ExtraLatency() != 1 {
			t.Fatalf("latency = %d", s.ExtraLatency())
		}
		rng := rand.New(rand.NewSource(int64(total)))
		for n := 0; n < 50; n++ {
			var raw [64]byte
			rng.Read(raw[:])
			blk := bitblock.Block(raw)
			bu := s.Encode(&blk)
			if bu.Beats != total {
				t.Fatalf("encoded beats %d", bu.Beats)
			}
			if got, err := s.Decode(bu); err != nil || got != blk {
				t.Fatalf("BL%d round-trip failed (%v)", total, err)
			}
		}
	}
}

func TestStretchedPadIsFree(t *testing.T) {
	s, err := NewStretched(code.MiLC{}, 16)
	if err != nil {
		t.Fatal(err)
	}
	var blk bitblock.Block
	inner := code.MiLC{}.Encode(&blk)
	outer := s.Encode(&blk)
	if outer.CountZeros() != inner.CountZeros() {
		t.Fatalf("padding added zeros: %d vs %d", outer.CountZeros(), inner.CountZeros())
	}
}

func TestStretchedValidation(t *testing.T) {
	if _, err := NewStretched(code.MiLC{}, 8); err == nil {
		t.Error("shrinking accepted")
	}
	if _, err := NewStretched(code.MiLC{}, 13); err == nil {
		t.Error("odd burst accepted")
	}
}

func TestStretchedName(t *testing.T) {
	s, _ := NewStretched(code.MiLC{}, 12)
	if s.Name() != "milc+bl12" {
		t.Fatalf("name %q", s.Name())
	}
}

// TestMiLEndToEndUsesBothCodes runs a real controller: sparse traffic must
// engage 3-LWC, dense row-hit bursts must engage MiLC.
func TestMiLEndToEndUsesBothCodes(t *testing.T) {
	mem := memctrl.NewOverlayMemory(func(line int64) bitblock.Block {
		var blk bitblock.Block
		rng := rand.New(rand.NewSource(line))
		rng.Read(blk[:])
		return blk
	})
	c, err := memctrl.NewController(
		memctrl.DefaultConfig(dram.DDR4_3200()), mem, MustNew(), &memctrl.PODPhy{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	mapper, err := memctrl.NewAddressMapper(1, dram.DDR4_3200().Geometry)
	if err != nil {
		t.Fatal(err)
	}
	_ = mapper

	now := int64(0)
	// Phase 1: isolated reads far apart in time: the queue is empty when
	// each is scheduled, so the wide code applies.
	for i := 0; i < 10; i++ {
		req := &memctrl.Request{Line: int64(i) * 1024, Demand: true}
		if !c.Enqueue(req, now) {
			t.Fatal("enqueue")
		}
		for c.Pending() {
			c.Tick(now)
			now++
		}
		now += 100
	}
	// Phase 2: a dense burst of row hits: rdyX sees multiple ready column
	// commands, so the base code applies.
	for i := int64(0); i < 32; i++ {
		req := &memctrl.Request{Line: i, Demand: true}
		if !c.Enqueue(req, now) {
			t.Fatal("enqueue")
		}
	}
	for c.Pending() {
		c.Tick(now)
		now++
	}

	s := c.Stats()
	if s.CodecBursts["lwc3"] == 0 {
		t.Fatalf("wide code never chosen: %v", s.CodecBursts)
	}
	if s.CodecBursts["milc"] == 0 {
		t.Fatalf("base code never chosen: %v", s.CodecBursts)
	}
}

// TestStretchedKernelEquivalence extends the codec kernel contracts to the
// Stretched wrapper: the cost probe must equal encode-then-count and the
// scratch path must be bit-identical to the allocating one, for both the
// inner codec's beats (MiLC) and the pad beats it appends.
func TestStretchedKernelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, total := range []int{12, 14, 16} {
		s, err := NewStretched(code.MiLC{}, total)
		if err != nil {
			t.Fatal(err)
		}
		var scratch bitblock.Burst
		for n := 0; n < 500; n++ {
			var raw [64]byte
			rng.Read(raw[:])
			blk := bitblock.Block(raw)
			want := s.Encode(&blk)
			if probe := s.CostZeros(&blk); probe != want.CountZeros() {
				t.Fatalf("%s: CostZeros=%d, Encode.CountZeros=%d", s.Name(), probe, want.CountZeros())
			}
			s.EncodeInto(&blk, &scratch)
			got := &scratch
			if got.Width != want.Width || got.Beats != want.Beats {
				t.Fatalf("%s: dims %dx%d, want %dx%d", s.Name(), got.Width, got.Beats, want.Width, want.Beats)
			}
			for b := 0; b < got.Beats; b++ {
				gl, gh := got.BeatWords(b)
				wl, wh := want.BeatWords(b)
				if gl != wl || gh != wh {
					t.Fatalf("%s beat %d differs", s.Name(), b)
				}
			}
		}
	}
}
