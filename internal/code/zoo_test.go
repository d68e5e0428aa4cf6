package code

import (
	"math/rand"
	"testing"

	"mil/internal/bitblock"
	"mil/internal/fault"
)

// This file referees ZAD's skip-transfer against the fault injector:
// skipped chunks must be corruption-immune, with only the mask sideband
// exposed. The low-weight codes (optmem, vlwcN) have their own referee in
// lowweight_test.go.

// zadTestBlock fills every chip with the pattern byte but zeroes chip
// zeroChip entirely, so each granularity has fully skipped chunks there.
func zadTestBlock(zeroChip int, pattern byte) bitblock.Block {
	var blk bitblock.Block
	for beat := 0; beat < 8; beat++ {
		for ch := 0; ch < bitblock.Chips; ch++ {
			if ch != zeroChip {
				blk[beat*bitblock.Chips+ch] = pattern
			}
		}
	}
	return blk
}

// TestZADSkippedChunksAreCorruptionImmune flips every data bit of a
// skipped chunk's elided beats: the decoder must not read them, so the
// block comes back bit-identical with no error, in both mask modes and
// at every granularity.
func TestZADSkippedChunksAreCorruptionImmune(t *testing.T) {
	for _, g := range []int{1, 2, 4, 8} {
		for _, resilient := range []bool{false, true} {
			z, err := NewZAD(g, resilient)
			if err != nil {
				t.Fatal(err)
			}
			blk := zadTestBlock(3, 0xb7)
			bu := z.Encode(&blk)
			for beat := 0; beat < 8; beat++ { // chip 3 is entirely skipped
				for pin := 0; pin < DataPinsPerChip; pin++ {
					bu.SetBit(beat, chipDataPin(3, pin), !bu.Bit(beat, chipDataPin(3, pin)))
				}
			}
			got, err := z.Decode(bu)
			if err != nil {
				t.Fatalf("%s: decode errored on skipped-chunk corruption: %v", z.Name(), err)
			}
			if got != blk {
				t.Fatalf("%s: skipped-chunk corruption leaked into the data", z.Name())
			}
		}
	}
}

// TestZADMaskSidebandExposure pins the documented trade: plain mode's
// single mask bit converts silently under one flip, resilient mode
// outvotes a minority of flips and detects an exact tie.
func TestZADMaskSidebandExposure(t *testing.T) {
	blk := zadTestBlock(5, 0x6c)

	plain, _ := NewZAD(4, false)
	bu := plain.Encode(&blk)
	bu.SetBit(0, chipDBIPin(5), true) // skipped -> "present": reads elided beats
	got, err := plain.Decode(bu)
	if err != nil {
		t.Fatalf("plain: mask flip reported an error; the single bit has no redundancy to detect with: %v", err)
	}
	if got == blk {
		t.Fatal("plain: mask flip did not corrupt - the exposure this mode documents")
	}

	res, _ := NewZAD(4, true)
	bu = res.Encode(&blk)
	bu.SetBit(1, chipDBIPin(5), true) // one of four copies: outvoted
	if got, err := res.Decode(bu); err != nil || got != blk {
		t.Fatalf("resilient: minority mask flip not outvoted (err %v)", err)
	}
	bu.SetBit(2, chipDBIPin(5), true) // two of four: an undecidable tie
	if _, err := res.Decode(bu); err == nil {
		t.Fatal("resilient: split mask vote decoded silently, want a detection error")
	}
}

// cloneBurst deep-copies a burst so the fault differential can diff the
// corrupted wires against the pristine transfer.
func cloneBurst(bu *bitblock.Burst) *bitblock.Burst {
	cp := bitblock.NewBurst(bu.Width, bu.Beats)
	for p := 0; p < bu.Width; p++ {
		cp.SetDriven(p, bu.Driven(p))
	}
	for b := 0; b < bu.Beats; b++ {
		lo, hi := bu.BeatWords(b)
		cp.SetBeatWords(b, lo, hi)
	}
	return cp
}

// TestZADFaultInjectorDifferential drives the PR-1 injector over a zero-
// heavy transfer: whenever every injected flip lands inside skipped
// chunks' elided beats, the decode must be exact - the skip-transfer
// immunity claim, proved against the same corruption stream the fault
// experiments use rather than hand-placed flips.
func TestZADFaultInjectorDifferential(t *testing.T) {
	z, err := NewZAD(8, false)
	if err != nil {
		t.Fatal(err)
	}
	// Chips 1..7 all zero (fully skipped); chip 0 carries data.
	var blk bitblock.Block
	for beat := 0; beat < 8; beat++ {
		blk[beat*bitblock.Chips] = byte(0x91 + beat)
	}
	pristine := z.Encode(&blk)

	elided := func(beat, pin int) bool {
		ch := pin / PinsPerChip
		return ch >= 1 && pin != chipDBIPin(ch)
	}
	immune, corrupted := 0, 0
	for seed := uint64(0); seed < 200; seed++ {
		inj := fault.MustNew(fault.Config{BER: 2e-3, Seed: seed})
		bu := cloneBurst(pristine)
		if inj.Corrupt(bu) == 0 {
			continue
		}
		allElided := true
		for beat := 0; beat < bu.Beats; beat++ {
			for pin := 0; pin < bu.Width; pin++ {
				if bu.Bit(beat, pin) != pristine.Bit(beat, pin) && !elided(beat, pin) {
					allElided = false
				}
			}
		}
		got, err := z.Decode(bu)
		if allElided {
			immune++
			if err != nil || got != blk {
				t.Fatalf("seed %d: flips confined to elided beats corrupted the decode (%v)", seed, err)
			}
		} else if err == nil && got != blk {
			corrupted++ // exposed surface hit: legal, the retry ladder's problem
		}
	}
	if immune == 0 {
		t.Fatal("no corruption run landed entirely in elided beats; differential never exercised")
	}
}

// TestZADCostAccounting pins the energy model's absolute numbers: an
// all-zero block costs one transmitted zero per chunk in plain mode and g
// per chunk in resilient mode, nothing else.
func TestZADCostAccounting(t *testing.T) {
	var zero bitblock.Block
	for _, tc := range []struct {
		g         int
		resilient bool
		want      int
	}{
		{1, false, 64}, {2, false, 32}, {4, false, 16}, {8, false, 8},
		{1, true, 64}, {2, true, 64}, {4, true, 64}, {8, true, 64},
	} {
		z, err := NewZAD(tc.g, tc.resilient)
		if err != nil {
			t.Fatal(err)
		}
		if got := z.Encode(&zero).CountZeros(); got != tc.want {
			t.Errorf("%s: all-zero block costs %d zeros, want %d", z.Name(), got, tc.want)
		}
	}
	// An all-ones block skips nothing and transmits no zeros at all.
	var ones bitblock.Block
	for i := range ones {
		ones[i] = 0xff
	}
	z, _ := NewZAD(4, false)
	if got := z.Encode(&ones).CountZeros(); got != 0 {
		t.Errorf("all-ones block costs %d zeros, want 0", got)
	}
}

// TestDecodeRejectsForeignDrivenMask is the satellite audit's pin: a burst
// with the right shape but another scheme's driven mask (raw parks the
// DBI pins, dbi drives them) must be rejected, not silently misread.
func TestDecodeRejectsForeignDrivenMask(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	blk := skewedBlock(rng)
	if _, err := (DBI{}).Decode(Raw{}.Encode(&blk)); err == nil {
		t.Error("dbi decoded a raw burst (parked DBI pins) without error")
	}
	if _, err := (Raw{}).Decode(DBI{}.Encode(&blk)); err == nil {
		t.Error("raw decoded a dbi burst (driven DBI pins) without error")
	}
	if _, err := DefaultOptMem().Decode(Raw{}.Encode(&blk)); err == nil {
		t.Error("optmem decoded a raw burst without error")
	}
	z, _ := NewZAD(4, false)
	if _, err := z.Decode(MiLC{}.Encode(&blk)); err == nil {
		t.Error("zad decoded a 10-beat milc burst without error")
	}
}
