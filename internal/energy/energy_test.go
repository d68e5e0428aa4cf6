package energy

import (
	"math"
	"testing"

	"mil/internal/dram"
	"mil/internal/memctrl"
)

func TestPowerPresetsValid(t *testing.T) {
	for _, p := range []DRAMPower{DDR4Power(), LPDDR3Power()} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestPowerValidation(t *testing.T) {
	p := DDR4Power()
	p.VDD = 0
	if p.Validate() == nil {
		t.Error("zero VDD accepted")
	}
	p = DDR4Power()
	p.IDD3N = p.IDD2N - 1
	if p.Validate() == nil {
		t.Error("IDD3N < IDD2N accepted")
	}
	p = DDR4Power()
	p.IDD4R = 0
	if p.Validate() == nil {
		t.Error("zero IDD4R accepted")
	}
}

// syntheticStats builds a plausible run for formula checks.
func syntheticStats() *memctrl.Stats {
	s := memctrl.NewStats()
	s.Reads = 1000
	s.Writes = 500
	s.Activates = 300
	s.Refreshes = 10
	s.BusyCycles = 6000
	s.CostUnits = 300000
	s.Zeros = 300000
	s.BurstBeats = 12000
	s.CodecBursts["milc"] = 1200
	s.CodecBursts["lwc3"] = 300
	return s
}

func TestDRAMEnergyBreakdownPositive(t *testing.T) {
	b, err := DRAMEnergy(DDR4Power(), dram.DDR4_3200(), 2, syntheticStats(), 100000)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]float64{
		"background": b.Background, "actpre": b.ActPre, "rdwr": b.RdWr,
		"refresh": b.Refresh, "io": b.IO, "codec": b.Codec,
	} {
		if v <= 0 {
			t.Errorf("%s energy = %v, want > 0", name, v)
		}
	}
	if b.Total() <= b.Background {
		t.Error("total not larger than background")
	}
}

func TestDRAMEnergyScalesWithZeros(t *testing.T) {
	s1 := syntheticStats()
	s2 := syntheticStats()
	s2.CostUnits *= 2
	b1, err := DRAMEnergy(DDR4Power(), dram.DDR4_3200(), 2, s1, 100000)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := DRAMEnergy(DDR4Power(), dram.DDR4_3200(), 2, s2, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if b2.IO <= b1.IO*1.9 || b2.IO >= b1.IO*2.1 {
		t.Fatalf("IO energy not proportional: %v vs %v", b1.IO, b2.IO)
	}
	if b2.Background != b1.Background {
		t.Fatal("background should not depend on zeros")
	}
}

func TestDRAMEnergyLongerRunMoreBackground(t *testing.T) {
	s := syntheticStats()
	b1, _ := DRAMEnergy(DDR4Power(), dram.DDR4_3200(), 2, s, 100000)
	b2, _ := DRAMEnergy(DDR4Power(), dram.DDR4_3200(), 2, s, 200000)
	if b2.Background <= b1.Background {
		t.Fatal("background must grow with runtime")
	}
	if b2.IO != b1.IO {
		t.Fatal("IO must not grow with runtime alone")
	}
}

func TestDRAMEnergyRejectsBadInput(t *testing.T) {
	if _, err := DRAMEnergy(DDR4Power(), dram.DDR4_3200(), 2, syntheticStats(), 0); err == nil {
		t.Error("zero cycles accepted")
	}
	bad := DDR4Power()
	bad.VDD = -1
	if _, err := DRAMEnergy(bad, dram.DDR4_3200(), 2, syntheticStats(), 1000); err == nil {
		t.Error("invalid power accepted")
	}
}

func TestBaselineHasNoCodecEnergy(t *testing.T) {
	s := syntheticStats()
	s.CodecBursts = map[string]int64{"dbi": 1500}
	b, err := DRAMEnergy(DDR4Power(), dram.DDR4_3200(), 2, s, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if b.Codec != 0 {
		t.Fatalf("DBI baseline charged codec energy %v", b.Codec)
	}
}

func TestCAFOAndStretchedMapToMiLCCosts(t *testing.T) {
	for _, name := range []string{"cafo2", "cafo4", "milc+bl12"} {
		if _, ok := codecCostsFor(name); !ok {
			t.Errorf("%s has no codec cost class", name)
		}
	}
	if _, ok := codecCostsFor("raw"); ok {
		t.Error("raw should have no codec cost")
	}
}

func TestTable4Values(t *testing.T) {
	milc := Table4["milc"]
	if milc.Enc.AreaUM2 != 1429 || milc.Enc.PowerMW != 3.32 || milc.Enc.LatencyNS != 0.35 {
		t.Fatalf("MiLC encoder row mismatch: %+v", milc.Enc)
	}
	lwc := Table4["lwc3"]
	if lwc.Dec.AreaUM2 != 81 || lwc.Dec.PowerMW != 0.70 || lwc.Dec.LatencyNS != 0.12 {
		t.Fatalf("3-LWC decoder row mismatch: %+v", lwc.Dec)
	}
}

func TestCPUEnergy(t *testing.T) {
	p := ServerCPUPower()
	e := CPUEnergy(p, 1.0, 0)
	if e != p.StaticW {
		t.Fatalf("static-only energy %v", e)
	}
	e2 := CPUEnergy(p, 1.0, 1_000_000_000)
	if e2 <= e {
		t.Fatal("instructions add no energy")
	}
	sys := SystemEnergy{CPU: 2, DRAM: Breakdown{Background: 1, IO: 0.5}}
	if sys.Total() != 3.5 {
		t.Fatalf("system total %v", sys.Total())
	}
}

func TestLPDDR3BackgroundMuchLowerThanDDR4(t *testing.T) {
	// The mobile part's background power must be far below the server's -
	// that asymmetry is why MiL's IO savings matter more on LPDDR3
	// (Section 7.4).
	s := syntheticStats()
	d4, _ := DRAMEnergy(DDR4Power(), dram.DDR4_3200(), 2, s, 100000)
	// Same wall-clock seconds: LPDDR3's clock is 2x slower.
	lp, _ := DRAMEnergy(LPDDR3Power(), dram.LPDDR3_1600(), 2, s, 50000)
	if lp.Background*4 > d4.Background {
		t.Fatalf("LPDDR3 background %v not << DDR4 %v", lp.Background, d4.Background)
	}
}

func TestHybridCodecCosts(t *testing.T) {
	c, ok := codecCostsFor("hybrid")
	if !ok {
		t.Fatal("hybrid has no cost class")
	}
	milc := Table4["milc"]
	lwc := Table4["lwc3"]
	if c.Enc.PowerMW <= lwc.Enc.PowerMW || c.Enc.PowerMW >= milc.Enc.PowerMW {
		t.Fatalf("hybrid encoder power %v not between the halves", c.Enc.PowerMW)
	}
}

// TestDRAMEnergyCodecTermIsOrderFree pins the codec term to one bit
// pattern: it sums per-codec contributions over the CodecBursts map, and
// with several MiL-class codecs (mil-bandit's arms) a sum taken in map
// iteration order varies in its last bits from call to call.
func TestDRAMEnergyCodecTermIsOrderFree(t *testing.T) {
	s := syntheticStats()
	s.CodecBursts = map[string]int64{"milc": 1234567, "optmem": 2345671, "vlwc": 3456712, "hybrid": 4567123}
	var first uint64
	for i := 0; i < 500; i++ {
		b, err := DRAMEnergy(DDR4Power(), dram.DDR4_3200(), 2, s, 100000)
		if err != nil {
			t.Fatal(err)
		}
		if bits := math.Float64bits(b.Codec); i == 0 {
			first = bits
		} else if bits != first {
			t.Fatalf("call %d: codec energy %x, first call %x", i, bits, first)
		}
	}
}
