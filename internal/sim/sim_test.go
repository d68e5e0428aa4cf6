package sim

import (
	"errors"
	"testing"
	"time"

	schemereg "mil/internal/scheme"
	"mil/internal/workload"
)

// quickRun executes a short verified run.
func quickRun(t *testing.T, system SystemKind, scheme, bench string, ops int64) *Result {
	t.Helper()
	b, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(Config{
		System: system, Scheme: scheme, Benchmark: b,
		MemOpsPerThread: ops, Verify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSchemeNamesAllRun(t *testing.T) {
	for _, scheme := range SchemeNames() {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			r := quickRun(t, Server, scheme, "GUPS", 200)
			if r.Mem.ColumnCommands() == 0 {
				t.Fatal("no memory traffic")
			}
			if r.CPUCycles <= 0 || r.SystemJ() <= 0 {
				t.Fatalf("degenerate result: %+v", r)
			}
		})
	}
}

func TestUnknownSchemeRejected(t *testing.T) {
	b, _ := workload.ByName("GUPS")
	_, err := Run(Config{System: Server, Scheme: "nope", Benchmark: b})
	if err == nil {
		t.Fatal("unknown scheme accepted")
	}
	// The wrap must keep scheme.ErrUnknown reachable: the CLIs branch on
	// it to print the annotated scheme table instead of a bare string.
	if !errors.Is(err, schemereg.ErrUnknown) {
		t.Fatalf("unknown-scheme error %v does not wrap scheme.ErrUnknown", err)
	}
	if _, err := Run(Config{System: Server, Scheme: "mil"}); err == nil {
		t.Fatal("nil benchmark accepted")
	}
}

// TestDeadlineAbortsBothLoops: a cell whose Config.Deadline has already
// passed stops with ErrDeadline under the event loop and the steplock
// loop alike. The gate polls the clock every 4096 landed cycles, so the
// cell must land on more cycles than that.
func TestDeadlineAbortsBothLoops(t *testing.T) {
	b, err := workload.ByName("GUPS")
	if err != nil {
		t.Fatal(err)
	}
	for _, steplock := range []bool{false, true} {
		cfg := Config{System: Server, Scheme: "mil", Benchmark: b, MemOpsPerThread: 200, Steplock: steplock}
		full, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if full.Loop.EventsFired <= 4096 {
			t.Fatalf("steplock=%v: the cell lands on %d cycles, too few to reach a deadline poll",
				steplock, full.Loop.EventsFired)
		}
		cfg.Deadline = time.Now().Add(-time.Second)
		if _, err := Run(cfg); !errors.Is(err, ErrDeadline) {
			t.Errorf("steplock=%v: got %v, want ErrDeadline", steplock, err)
		}
	}
}

func TestMobileSystemRuns(t *testing.T) {
	for _, scheme := range []string{"baseline", "mil", "milc"} {
		r := quickRun(t, Mobile, scheme, "SWIM", 200)
		if r.Mem.ColumnCommands() == 0 {
			t.Fatalf("%s: no traffic", scheme)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := quickRun(t, Server, "mil", "CG", 300)
	b := quickRun(t, Server, "mil", "CG", 300)
	if a.CPUCycles != b.CPUCycles || a.Mem.Zeros != b.Mem.Zeros || a.Mem.Reads != b.Mem.Reads {
		t.Fatalf("nondeterministic: %d/%d zeros %d/%d", a.CPUCycles, b.CPUCycles, a.Mem.Zeros, b.Mem.Zeros)
	}
}

func TestMiLReducesZerosVersusBaseline(t *testing.T) {
	base := quickRun(t, Server, "baseline", "GUPS", 500)
	mil := quickRun(t, Server, "mil", "GUPS", 500)
	if mil.Mem.Zeros >= base.Mem.Zeros {
		t.Fatalf("MiL zeros %d not below DBI %d", mil.Mem.Zeros, base.Mem.Zeros)
	}
	// The headline claim's direction: IO energy drops.
	if mil.DRAM.IO >= base.DRAM.IO {
		t.Fatalf("MiL IO %v not below baseline %v", mil.DRAM.IO, base.DRAM.IO)
	}
}

func TestAlwaysLWC3SlowerThanBaselineOnGUPS(t *testing.T) {
	// Figure 2: naive always-on 3-LWC inflates execution time on
	// bandwidth-bound GUPS.
	base := quickRun(t, Server, "baseline", "GUPS", 500)
	lwc := quickRun(t, Server, "lwc3", "GUPS", 500)
	if lwc.CPUCycles <= base.CPUCycles {
		t.Fatalf("always-3-LWC (%d cycles) not slower than DBI (%d)", lwc.CPUCycles, base.CPUCycles)
	}
}

func TestMiLPerformanceCloseToBaseline(t *testing.T) {
	base := quickRun(t, Server, "baseline", "CG", 400)
	mil := quickRun(t, Server, "mil", "CG", 400)
	ratio := float64(mil.CPUCycles) / float64(base.CPUCycles)
	if ratio > 1.15 {
		t.Fatalf("MiL slowdown %.3f on CG, want modest", ratio)
	}
}

func TestMiLUsesBothCodes(t *testing.T) {
	r := quickRun(t, Server, "mil", "CG", 500)
	if r.Mem.CodecBursts["milc"] == 0 {
		t.Fatalf("MiLC never used: %v", r.Mem.CodecBursts)
	}
	if r.Mem.CodecBursts["lwc3"] == 0 {
		t.Fatalf("3-LWC never used: %v", r.Mem.CodecBursts)
	}
}

func TestEnergyBreakdownSane(t *testing.T) {
	r := quickRun(t, Server, "baseline", "OCEAN", 400)
	if r.DRAM.Background <= 0 || r.DRAM.IO <= 0 || r.DRAM.RdWr <= 0 {
		t.Fatalf("missing energy components: %+v", r.DRAM)
	}
	if r.CPUJ <= 0 {
		t.Fatal("no CPU energy")
	}
	if r.DRAM.Codec != 0 {
		t.Fatalf("baseline charged codec energy %v", r.DRAM.Codec)
	}
	r2 := quickRun(t, Server, "mil", "OCEAN", 400)
	if r2.DRAM.Codec <= 0 {
		t.Fatal("MiL codec energy missing")
	}
}

func TestBusStatisticsPopulated(t *testing.T) {
	r := quickRun(t, Server, "baseline", "SWIM", 500)
	if r.Mem.GapPairs == 0 {
		t.Fatal("no gap samples")
	}
	if r.Mem.GapHist.Total() != r.Mem.GapPairs {
		t.Fatal("gap histogram inconsistent")
	}
	if r.Mem.SlackHist.Total() == 0 {
		t.Fatal("no slack samples")
	}
	if r.BusUtilization() <= 0 || r.BusUtilization() >= 1 {
		t.Fatalf("utilization %v", r.BusUtilization())
	}
	if r.Mem.IdlePendingCycles == 0 {
		t.Fatal("no idle-with-pending cycles observed")
	}
}

func TestSystemKindString(t *testing.T) {
	if Server.String() != "server-ddr4" || Mobile.String() != "mobile-lpddr3" {
		t.Fatal("kind strings")
	}
}

func TestPowerDownExtensionSavesBackgroundEnergy(t *testing.T) {
	b, err := workload.ByName("MM") // mostly idle DRAM: maximal PD benefit
	if err != nil {
		t.Fatal(err)
	}
	off, err := Run(Config{System: Server, Scheme: "baseline", Benchmark: b, MemOpsPerThread: 300})
	if err != nil {
		t.Fatal(err)
	}
	on, err := Run(Config{System: Server, Scheme: "baseline", Benchmark: b, MemOpsPerThread: 300, PowerDown: true})
	if err != nil {
		t.Fatal(err)
	}
	if on.Mem.PowerDownCycles == 0 {
		t.Fatal("no power-down engaged")
	}
	// Joules per DRAM cycle of background must drop (runtimes may differ).
	offBG := off.DRAM.Background / float64(off.DRAMCycles)
	onBG := on.DRAM.Background / float64(on.DRAMCycles)
	if onBG >= offBG {
		t.Fatalf("background per cycle did not drop: %v -> %v", offBG, onBG)
	}
}
