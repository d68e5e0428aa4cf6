package code

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mil/internal/bitblock"
)

// allCodecs returns every registered codec for table-driven tests.
func allCodecs(t *testing.T) []Codec {
	t.Helper()
	var cs []Codec
	for _, name := range Names() {
		c, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		cs = append(cs, c)
	}
	return cs
}

func TestByNameRejectsUnknown(t *testing.T) {
	for _, bad := range []string{"", "dbi2", "cafo0", "cafo-1", "milc2"} {
		if _, err := ByName(bad); err == nil {
			t.Errorf("ByName(%q) succeeded, want error", bad)
		}
	}
}

func TestByNameCAFOIterations(t *testing.T) {
	c, err := ByName("cafo7")
	if err != nil {
		t.Fatal(err)
	}
	if got := c.(CAFO).Iterations(); got != 7 {
		t.Fatalf("iterations = %d, want 7", got)
	}
	if c.ExtraLatency() != 7 {
		t.Fatalf("extra latency = %d, want 7", c.ExtraLatency())
	}
}

func TestCodecRoundTrip(t *testing.T) {
	for _, c := range allCodecs(t) {
		c := c
		t.Run(c.Name(), func(t *testing.T) {
			f := func(raw [64]byte) bool {
				blk := bitblock.Block(raw)
				out, err := c.Decode(c.Encode(&blk))
				return err == nil && out == blk
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCodecRoundTripStructuredData(t *testing.T) {
	// Correlated / extreme patterns stress the XOR and inversion paths.
	patterns := [][64]byte{
		{}, // all zeros
		func() (b [64]byte) { // all ones
			for i := range b {
				b[i] = 0xff
			}
			return
		}(),
		func() (b [64]byte) { // repeated stride pattern (spatially correlated)
			for i := range b {
				b[i] = byte(0x80 >> (i % 8))
			}
			return
		}(),
		func() (b [64]byte) { // ASCII-ish text
			s := "the quick brown fox jumps over the lazy dog 0123456789 abcdef!"
			copy(b[:], s)
			return
		}(),
		func() (b [64]byte) { // small positive float64 bit patterns
			for i := range b {
				if i%8 == 6 || i%8 == 7 {
					b[i] = 0x3f
				}
			}
			return
		}(),
	}
	for _, c := range allCodecs(t) {
		for i, p := range patterns {
			blk := bitblock.Block(p)
			if out, err := c.Decode(c.Encode(&blk)); err != nil || out != blk {
				t.Errorf("%s: pattern %d did not round-trip", c.Name(), i)
			}
		}
	}
}

func TestCodecBurstDimensions(t *testing.T) {
	want := map[string]struct{ beats, pins, latency int }{
		"raw":    {8, 64, 0},
		"dbi":    {8, 72, 0},
		"milc":   {10, 64, 1},
		"lwc3":   {16, 72, 1},
		"hybrid": {14, 64, 1},
		"cafo2":  {10, 64, 2},
		"cafo4":  {10, 64, 4},
		"optmem": {8, 72, 0},
		"vlwc":   {12, 64, 1},
		"zad":    {8, 72, 0},
		"zadr":   {8, 72, 0},
	}
	var blk bitblock.Block
	for _, c := range allCodecs(t) {
		w := want[c.Name()]
		if c.Beats() != w.beats {
			t.Errorf("%s: beats = %d, want %d", c.Name(), c.Beats(), w.beats)
		}
		bu := c.Encode(&blk)
		if bu.Beats != w.beats {
			t.Errorf("%s: encoded beats = %d, want %d", c.Name(), bu.Beats, w.beats)
		}
		if bu.DrivenPins() != w.pins {
			t.Errorf("%s: driven pins = %d, want %d", c.Name(), bu.DrivenPins(), w.pins)
		}
		if c.ExtraLatency() != w.latency {
			t.Errorf("%s: latency = %d, want %d", c.Name(), c.ExtraLatency(), w.latency)
		}
	}
}

func TestDBIZeroBound(t *testing.T) {
	// Section 2.1.1: every 9-bit group carries fewer than five zeros.
	f := func(raw [64]byte) bool {
		blk := bitblock.Block(raw)
		bu := DBI{}.Encode(&blk)
		for beat := 0; beat < 8; beat++ {
			for c := 0; c < bitblock.Chips; c++ {
				z := 0
				for i := 0; i < 9; i++ {
					if !bu.Bit(beat, c*PinsPerChip+i) {
						z++
					}
				}
				if z > 4 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDBIWorstCaseByte(t *testing.T) {
	wire, bit := dbiEncodeByte(0x00)
	if wire != 0xff || bit {
		t.Fatalf("0x00 -> wire %02x dbi %v, want ff/false", wire, bit)
	}
	wire, bit = dbiEncodeByte(0xff)
	if wire != 0xff || !bit {
		t.Fatalf("0xff -> wire %02x dbi %v, want ff/true", wire, bit)
	}
	// Exactly four zeros stays uninverted.
	wire, bit = dbiEncodeByte(0x0f)
	if wire != 0x0f || !bit {
		t.Fatalf("0x0f -> wire %02x dbi %v, want 0f/true", wire, bit)
	}
}

func TestLWC3ZeroBound(t *testing.T) {
	// Section 5.2.2: at most three zeros per 17-bit codeword. Exhaustive
	// over all 256 bytes.
	for d := 0; d < 256; d++ {
		w := lwcEncodeByte(byte(d))
		inv := ^w & 0x1ffff
		zeros := 0
		for i := 0; i < lwcWordBits; i++ {
			if inv>>i&1 == 0 {
				zeros++
			}
		}
		if zeros > 3 {
			t.Fatalf("byte %02x: %d zeros in transmitted word", d, zeros)
		}
	}
}

func TestLWC3ExhaustiveRoundTrip(t *testing.T) {
	for d := 0; d < 256; d++ {
		got, err := lwcDecodeWord(lwcEncodeByte(byte(d)))
		if err != nil {
			t.Fatalf("byte %02x: %v", d, err)
		}
		if got != byte(d) {
			t.Fatalf("byte %02x decoded to %02x", d, got)
		}
	}
}

func TestLWC3CodewordsUnique(t *testing.T) {
	seen := map[uint32]byte{}
	for d := 0; d < 256; d++ {
		w := lwcEncodeByte(byte(d))
		if prev, dup := seen[w]; dup {
			t.Fatalf("bytes %02x and %02x share codeword %05x", prev, d, w)
		}
		seen[w] = byte(d)
	}
}

func TestLWC3ModeNever11(t *testing.T) {
	// The mode reassignment of Table 1 only uses 00, 01, 10, which is what
	// keeps the total weight at 3.
	for d := 0; d < 256; d++ {
		if mode := lwcEncodeByte(byte(d)) >> 15; mode == 3 {
			t.Fatalf("byte %02x uses mode 11", d)
		}
	}
}

func TestLWC3DecodeRejectsGarbage(t *testing.T) {
	cases := []uint32{
		0x7fff,       // weight 15 code
		1<<15 | 0,    // empty code, mode 01
		3<<15 | 1,    // mode 11
		1<<15 | 0b11, // two ones with mode 01
	}
	for _, w := range cases {
		if _, err := lwcDecodeWord(w); err == nil {
			t.Errorf("lwcDecodeWord(%05x) accepted invalid word", w)
		}
	}
}

func TestLWC3PadBitsHigh(t *testing.T) {
	// The 8 pad bit-times per chip are driven high so they cost nothing.
	var blk bitblock.Block
	bu := LWC3{}.Encode(&blk)
	for c := 0; c < bitblock.Chips; c++ {
		for i := 0; i < 8; i++ {
			bit := 8*lwcWordBits + i
			beat, pin := bit/PinsPerChip, bit%PinsPerChip
			if !bu.Bit(beat, c*PinsPerChip+pin) {
				t.Fatalf("chip %d pad bit %d is low", c, i)
			}
		}
	}
}

func TestMiLCZeroBlockIsCheap(t *testing.T) {
	// An all-zero block should be nearly free after inversion: every row
	// inverts to 0xff, leaving exactly one indicator zero per row - the
	// same floor DBI reaches (one per byte), never worse.
	var blk bitblock.Block
	bu := MiLC{}.Encode(&blk)
	z := bu.CountZeros()
	if z > 8*8 {
		t.Fatalf("all-zero block costs %d zeros under MiLC, want <= 64", z)
	}
	dbiZ := DBI{}.Encode(&blk).CountZeros()
	if z > dbiZ {
		t.Fatalf("MiLC (%d zeros) worse than DBI (%d) on zero block", z, dbiZ)
	}
}

func TestMiLCExploitsRowCorrelation(t *testing.T) {
	// Identical adjacent rows XOR to zero and invert to all-ones; MiLC must
	// beat DBI clearly on such data even when each row alone is balanced.
	var blk bitblock.Block
	for i := range blk {
		blk[i] = 0xa5 // balanced byte: DBI cannot help at all
	}
	milcZ := MiLC{}.Encode(&blk).CountZeros()
	dbiZ := DBI{}.Encode(&blk).CountZeros()
	if milcZ*2 > dbiZ {
		t.Fatalf("correlated data: MiLC %d zeros vs DBI %d, expected <= half", milcZ, dbiZ)
	}
}

func TestMiLCRowEncoderPicksMinimum(t *testing.T) {
	// For each candidate, verify no other candidate is strictly cheaper.
	rng := rand.New(rand.NewSource(11))
	for n := 0; n < 2000; n++ {
		cur, prev := byte(rng.Intn(256)), byte(rng.Intn(256))
		got := encodeMilcRow(cur, prev)
		gotCost := zeros8(got.wire) + boolBitZero(got.xor) + boolBitZero(got.inv)
		for _, xor := range []bool{false, true} {
			for _, invert := range []bool{false, true} {
				w := cur
				if xor {
					w ^= prev
				}
				if invert {
					w = ^w
				}
				cost := zeros8(w) + boolBitZero(xor) + boolBitZero(!invert)
				if cost < gotCost {
					t.Fatalf("cur=%02x prev=%02x: picked cost %d, candidate (xor=%v inv=%v) costs %d",
						cur, prev, gotCost, xor, invert, cost)
				}
			}
		}
	}
}

func TestMiLCLaneRoundTripExhaustiveRows(t *testing.T) {
	// Exercise each (row, previous-row) byte pair through a full lane.
	rng := rand.New(rand.NewSource(13))
	for n := 0; n < 5000; n++ {
		lane := rng.Uint64()
		cw := milcEncodeLane(lane)
		if got := milcDecodeLane(&cw); got != lane {
			t.Fatalf("lane %016x decoded to %016x", lane, got)
		}
	}
}

func TestMiLCXorbiReducesZeros(t *testing.T) {
	// Construct a lane where all rows prefer the non-XOR candidates so the
	// raw xor column is all zeros; xorbi must flip it.
	var lane uint64
	for r := 0; r < 8; r++ {
		lane |= uint64(0xff) << (8 * r) // all-ones rows: original is free, XOR is terrible
	}
	cw := milcEncodeLane(lane)
	if cw.bit(8) { // xorbi: false means the column was inverted
		t.Fatal("expected xorbi to invert an all-zero xor column")
	}
	// With the column inverted the xor slots of rows 1..7 must read 1.
	for r := 1; r < 8; r++ {
		if !cw.bit(r*10 + 8) {
			t.Fatalf("row %d xor slot not inverted high", r)
		}
	}
}

func TestCAFOBeatsDBIOnColumnStructure(t *testing.T) {
	// A block whose zeros concentrate in one bit column: row inversion (and
	// hence DBI) cannot help, column inversion fixes it outright.
	var blk bitblock.Block
	for i := range blk {
		blk[i] = 0xa5 &^ 0x01 // clear bit 0 everywhere, keep rows balanced-ish
	}
	cafoZ := NewCAFO(2).Encode(&blk).CountZeros()
	dbiZ := DBI{}.Encode(&blk).CountZeros()
	if cafoZ >= dbiZ {
		t.Fatalf("CAFO2 %d zeros vs DBI %d on column-structured data", cafoZ, dbiZ)
	}
}

func TestCAFOMoreIterationsNeverWorse(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for n := 0; n < 300; n++ {
		var raw [64]byte
		rng.Read(raw[:])
		blk := bitblock.Block(raw)
		z2 := NewCAFO(2).Encode(&blk).CountZeros()
		z4 := NewCAFO(4).Encode(&blk).CountZeros()
		if z4 > z2 {
			t.Fatalf("CAFO4 (%d zeros) worse than CAFO2 (%d)", z4, z2)
		}
	}
}

func TestTransitionSignalingRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var txState, rxState bitblock.BusState
	for p := 0; p < 7; p += 2 { // arbitrary non-zero initial bus level
		txState.SetPin(p, true)
		rxState.SetPin(p, true)
	}
	for n := 0; n < 50; n++ {
		bu := bitblock.NewBurst(9, 8)
		for b := 0; b < 8; b++ {
			for p := 0; p < 9; p++ {
				bu.SetBit(b, p, rng.Intn(2) == 1)
			}
		}
		bu.SetDriven(4, n%3 == 0)
		wire := SignalTransitions(bu, &txState)
		back := RecoverTransitions(wire, &rxState)
		for b := 0; b < 8; b++ {
			for p := 0; p < 9; p++ {
				if !bu.Driven(p) {
					continue
				}
				if back.Bit(b, p) != bu.Bit(b, p) {
					t.Fatalf("burst %d: bit (%d,%d) corrupted", n, b, p)
				}
			}
		}
	}
}

func TestTransitionSignalingTogglesEqualZeros(t *testing.T) {
	// Flip-on-zero: the wire burst's toggle count must equal the logical
	// burst's zero count, which is what lets zero-minimizing codes carry
	// over to LPDDR3 (Section 4.5).
	rng := rand.New(rand.NewSource(23))
	for n := 0; n < 100; n++ {
		bu := bitblock.NewBurst(8, 10)
		for b := 0; b < 10; b++ {
			for p := 0; p < 8; p++ {
				bu.SetBit(b, p, rng.Intn(2) == 1)
			}
		}
		var sigState, cntState bitblock.BusState
		for p := 0; p < 8; p++ {
			lvl := rng.Intn(2) == 1
			sigState.SetPin(p, lvl)
			cntState.SetPin(p, lvl)
		}
		wire := SignalTransitions(bu, &sigState)
		toggles := wire.Transitions(&cntState)
		if toggles != bu.CountZeros() {
			t.Fatalf("toggles %d != logical zeros %d", toggles, bu.CountZeros())
		}
	}
}

func TestBusInvertRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var bi BusInvert
	var txState bitblock.BusState
	for n := 0; n < 100; n++ {
		var raw [64]byte
		rng.Read(raw[:])
		blk := bitblock.Block(raw)
		wire, _ := bi.EncodeWire(&blk, &txState)
		if got := bi.DecodeWire(wire); got != blk {
			t.Fatalf("burst %d failed to round-trip", n)
		}
	}
}

func TestBusInvertReducesToggles(t *testing.T) {
	// Alternating complement bytes toggle every wire without BI; BI must
	// cut that roughly in half or better.
	var bi BusInvert
	var state bitblock.BusState
	total := 0
	for n := 0; n < 64; n++ {
		var raw [64]byte
		fill := byte(0x00)
		if n%2 == 1 {
			fill = 0xff
		}
		for i := range raw {
			raw[i] = fill
		}
		blk := bitblock.Block(raw)
		_, toggles := bi.EncodeWire(&blk, &state)
		total += toggles
	}
	// Without BI: after warmup each burst toggles 64 wires x 8 beats... the
	// worst case is 512 toggles per block boundary. With BI the data wires
	// never toggle (inversion absorbs the flip), only BI wires do.
	if total > 64*16 {
		t.Fatalf("BI let %d toggles through on complement-alternating data", total)
	}
}

func TestDBIZerosBeatsRawOnSparseData(t *testing.T) {
	var freq [256]uint64
	freq[0x00] = 100 // all-zero bytes dominate
	freq[0xff] = 10
	if DBIZeros(&freq) >= RawZeros(&freq) {
		t.Fatalf("DBI zeros %d not below raw %d", DBIZeros(&freq), RawZeros(&freq))
	}
}

func TestEncodeDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for _, c := range allCodecs(t) {
		for n := 0; n < 50; n++ {
			var raw [64]byte
			rng.Read(raw[:])
			blk := bitblock.Block(raw)
			a := c.Encode(&blk)
			b := c.Encode(&blk)
			if a.CountZeros() != b.CountZeros() || a.Beats != b.Beats {
				t.Fatalf("%s: nondeterministic encode", c.Name())
			}
			for beat := 0; beat < a.Beats; beat++ {
				for p := 0; p < a.Width; p++ {
					if a.Driven(p) != b.Driven(p) {
						t.Fatalf("%s: driven mask differs", c.Name())
					}
					if a.Driven(p) && a.Bit(beat, p) != b.Bit(beat, p) {
						t.Fatalf("%s: bit (%d,%d) differs", c.Name(), beat, p)
					}
				}
			}
		}
	}
}

func TestSparseCodesBeatDBIOnSparseData(t *testing.T) {
	// The motivating data class: zero-heavy blocks. Every sparse code must
	// transmit fewer zeros than DBI there.
	var blk bitblock.Block
	for i := 0; i < 16; i++ {
		blk[i*4] = byte(i + 1) // a few small nonzero bytes
	}
	dbiZ := DBI{}.Encode(&blk).CountZeros()
	for _, name := range []string{"milc", "lwc3", "hybrid", "cafo2", "cafo4"} {
		c, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if z := c.Encode(&blk).CountZeros(); z >= dbiZ {
			t.Errorf("%s: %d zeros >= DBI's %d on sparse data", name, z, dbiZ)
		}
	}
}
