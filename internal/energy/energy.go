// Package energy implements the evaluation's energy models (Section 6):
// a Micron-power-calculator-style DRAM model driven by IDD currents
// (background, activate/precharge, read/write, refresh), the IO interface
// models of Section 2.1 (POD zeros on DDR4, wire toggles on unterminated
// LPDDR3), the synthesized codec costs of Table 4, and a McPAT-like CPU
// envelope for the system-energy roll-ups of Figure 19.
package energy

import (
	"fmt"
	"math"
	"sort"

	"mil/internal/dram"
	"mil/internal/memctrl"
	"mil/internal/obs"
)

// DRAMPower holds the electrical constants of one memory technology. The
// IDD currents are per rank (the per-chip datasheet values times the chips
// per rank), in milliamperes at VDD.
type DRAMPower struct {
	Name string
	VDD  float64 // volts

	IDD2N float64 // precharge standby
	IDD2P float64 // fast power-down (the Section 7.3 extension)
	IDD3N float64 // active standby (the evaluated default, Section 7.3)
	IDD0  float64 // ACT-PRE cycling average
	IDD4R float64 // burst read
	IDD4W float64 // burst write
	IDD5  float64 // refresh burst

	// IOEnergyPJ is the picojoules one IO cost unit consumes: one zero
	// bit-time on the VDDQ-terminated DDR4 bus, or one wire toggle on the
	// unterminated LPDDR3 bus.
	IOEnergyPJ float64
}

// DDR4Power returns the DDR4-3200 constants: per-chip datasheet IDDs times
// eight x8 chips per rank, and the POD driver/termination dissipation per
// transmitted zero (VDDQ^2/(Ron+Rtt) for one bit time, plus the secondary
// termination paths of a dual-rank channel).
func DDR4Power() DRAMPower {
	return DRAMPower{
		Name: "DDR4-3200", VDD: 1.2,
		IDD2N: 8 * 34, IDD2P: 8 * 22, IDD3N: 8 * 44, IDD0: 8 * 58,
		IDD4R: 8 * 150, IDD4W: 8 * 130, IDD5: 8 * 190,
		IOEnergyPJ: 13.0,
	}
}

// LPDDR3Power returns the LPDDR3-1600 constants: aggressively low
// background currents (the mobile optimization the paper leans on in
// Section 7.4) and the CV^2 toggle energy of the unterminated bus.
func LPDDR3Power() DRAMPower {
	return DRAMPower{
		Name: "LPDDR3-1600", VDD: 1.2,
		IDD2N: 12, IDD2P: 2, IDD3N: 30, IDD0: 70,
		IDD4R: 320, IDD4W: 300, IDD5: 350,
		IOEnergyPJ: 14.0,
	}
}

// Validate reports nonsensical constants.
func (p *DRAMPower) Validate() error {
	if p.VDD <= 0 || p.IOEnergyPJ <= 0 {
		return fmt.Errorf("energy: VDD %v / IO %v", p.VDD, p.IOEnergyPJ)
	}
	for _, v := range []float64{p.IDD2N, p.IDD3N, p.IDD0, p.IDD4R, p.IDD4W, p.IDD5} {
		if v <= 0 {
			return fmt.Errorf("energy: non-positive IDD in %s", p.Name)
		}
	}
	if p.IDD3N < p.IDD2N || p.IDD4R < p.IDD3N || p.IDD4W < p.IDD3N {
		return fmt.Errorf("energy: IDD ordering violated in %s", p.Name)
	}
	if p.IDD2P < 0 || p.IDD2P > p.IDD2N {
		return fmt.Errorf("energy: IDD2P %v outside [0, IDD2N] in %s", p.IDD2P, p.Name)
	}
	return nil
}

// CodecCost is one synthesized block from Table 4 (22nm DRAM process).
type CodecCost struct {
	AreaUM2   float64
	PowerMW   float64
	LatencyNS float64
}

// CodecCosts is a codec's encoder/decoder pair.
type CodecCosts struct {
	Enc CodecCost
	Dec CodecCost
}

// Table4 reproduces the paper's synthesis results for the two MiL codecs.
// CAFO is modeled as a MiLC-class encoder per iteration.
var Table4 = map[string]CodecCosts{
	"milc": {
		Enc: CodecCost{AreaUM2: 1429, PowerMW: 3.32, LatencyNS: 0.35},
		Dec: CodecCost{AreaUM2: 188, PowerMW: 0.16, LatencyNS: 0.39},
	},
	"lwc3": {
		Enc: CodecCost{AreaUM2: 173, PowerMW: 0.44, LatencyNS: 0.10},
		Dec: CodecCost{AreaUM2: 81, PowerMW: 0.70, LatencyNS: 0.12},
	},
}

// codecCostsFor maps any codec name to its Table 4 class: the DBI/BI
// baselines round to zero (their codecs exist in both configurations), the
// MiL codes use their synthesized numbers, and CAFO variants use MiLC-class
// hardware.
func codecCostsFor(name string) (CodecCosts, bool) {
	if c, ok := Table4[name]; ok {
		return c, true
	}
	if len(name) >= 4 && name[:4] == "cafo" {
		return Table4["milc"], true
	}
	if len(name) >= 4 && name[:4] == "milc" { // stretched variants
		return Table4["milc"], true
	}
	switch {
	case name == "optmem", len(name) >= 4 && name[:4] == "vlwc":
		// The literature codecs are table lookups (optmem) or a short
		// enumerative pipeline (vlwc): comparable logic depth to the 3-LWC
		// mapper, so they borrow its synthesized block. Deliberately NOT
		// entries in Table4 itself, which reproduces the paper's table
		// verbatim (and feeds the table-4.md golden).
		return Table4["lwc3"], true
	case len(name) >= 3 && name[:3] == "zad":
		// ZAD's encoder is an 8-input NOR per chunk and its decoder a mask
		// mux: well under a tenth of the 3-LWC mapper. Round the same way
		// the DBI baseline does - the codec energy term stays zero rather
		// than inventing an unsynthesized number.
		return CodecCosts{}, false
	}
	if name == "hybrid" {
		// Half a MiLC lane plus half a 3-LWC lane per chip.
		m, l := Table4["milc"], Table4["lwc3"]
		return CodecCosts{
			Enc: CodecCost{
				AreaUM2:   (m.Enc.AreaUM2 + l.Enc.AreaUM2) / 2,
				PowerMW:   (m.Enc.PowerMW + l.Enc.PowerMW) / 2,
				LatencyNS: m.Enc.LatencyNS,
			},
			Dec: CodecCost{
				AreaUM2:   (m.Dec.AreaUM2 + l.Dec.AreaUM2) / 2,
				PowerMW:   (m.Dec.PowerMW + l.Dec.PowerMW) / 2,
				LatencyNS: m.Dec.LatencyNS,
			},
		}, true
	}
	return CodecCosts{}, false
}

// Breakdown is the DRAM energy split of Figure 18, in joules.
type Breakdown struct {
	Background float64
	ActPre     float64
	RdWr       float64
	Refresh    float64
	IO         float64
	Codec      float64
}

// Total returns the DRAM system energy.
func (b Breakdown) Total() float64 {
	return b.Background + b.ActPre + b.RdWr + b.Refresh + b.IO + b.Codec
}

// DRAMEnergy computes the Figure 18 breakdown for a finished run.
//   - power: the technology constants
//   - dev: the device timing/geometry (for tCK, tRC, tRFC, ranks)
//   - channels: channel count
//   - s: aggregated controller statistics
//   - cycles: elapsed DRAM cycles
func DRAMEnergy(power DRAMPower, dev dram.Config, channels int, s *memctrl.Stats, cycles int64) (Breakdown, error) {
	if err := power.Validate(); err != nil {
		return Breakdown{}, err
	}
	if cycles <= 0 {
		return Breakdown{}, fmt.Errorf("energy: %d elapsed cycles", cycles)
	}
	tckNS := dev.ClockNS
	seconds := float64(cycles) * tckNS * 1e-9
	mw2w := 1e-3
	ranks := float64(dev.Geometry.Ranks * channels)

	var b Breakdown
	// Background: ranks sit in active standby (the open-page policy keeps
	// rows open and the evaluated systems lack a fast power-down mode,
	// Section 7.3), except for rank-cycles the power-down extension spent
	// in IDD2P.
	rankSeconds := seconds * ranks
	pdSeconds := float64(s.PowerDownCycles) * tckNS * 1e-9
	if pdSeconds > rankSeconds {
		pdSeconds = rankSeconds
	}
	b.Background = power.IDD3N*mw2w*power.VDD*(rankSeconds-pdSeconds) +
		power.IDD2P*mw2w*power.VDD*pdSeconds

	// Activate/precharge: the incremental IDD0 current over standby for
	// one tRC window per activation.
	actSec := float64(dev.Timing.RC) * tckNS * 1e-9
	b.ActPre = (power.IDD0 - power.IDD3N) * mw2w * power.VDD * actSec * float64(s.Activates)

	// Read/write burst current over the cycles the bus carried data. Reads
	// and writes are close enough to use the issued-command ratio.
	rw := float64(s.Reads + s.Writes)
	if rw > 0 {
		readFrac := float64(s.Reads) / rw
		busSec := float64(s.BusyCycles) * tckNS * 1e-9
		iddRW := power.IDD4R*readFrac + power.IDD4W*(1-readFrac)
		b.RdWr = (iddRW - power.IDD3N) * mw2w * power.VDD * busSec
	}

	// Refresh: incremental IDD5 current for tRFC per REF command.
	refSec := float64(dev.Timing.RFC) * tckNS * 1e-9
	b.Refresh = (power.IDD5 - power.IDD3N) * mw2w * power.VDD * refSec * float64(s.Refreshes)

	// IO: proportional to the accounted cost units (zeros or toggles).
	b.IO = power.IOEnergyPJ * 1e-12 * float64(s.CostUnits)

	// Codec: encoder+decoder power over each coded burst's wire time,
	// summed in codec-name order so the result does not depend on map
	// iteration order.
	names := make([]string, 0, len(s.CodecBursts))
	for name := range s.CodecBursts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		bursts := s.CodecBursts[name]
		costs, ok := codecCostsFor(name)
		if !ok {
			continue // raw/dbi/bi: no MiL codec engaged
		}
		// Approximate burst wire time from the aggregate beat count share.
		if s.ColumnCommands() == 0 {
			continue
		}
		avgBeats := float64(s.BurstBeats) / float64(s.ColumnCommands())
		burstSec := avgBeats / 2 * tckNS * 1e-9
		b.Codec += (costs.Enc.PowerMW + costs.Dec.PowerMW) * mw2w * burstSec * float64(bursts)
	}
	return b, nil
}

// RetryEnergyJ returns the IO energy wasted on bursts that ended NACKed and
// had to be replayed. It is a subset of Breakdown.IO - CostUnits already
// charges every burst put on the wire, including failed transfers, their
// replays, and write-CRC beats - broken out so fault experiments can report
// the reliability tax separately.
func RetryEnergyJ(power DRAMPower, s *memctrl.Stats) float64 {
	return power.IOEnergyPJ * 1e-12 * float64(s.RetryCostUnits)
}

// CPUPower is the McPAT-like envelope for the cores, caches, and uncore.
// Energy = StaticW x time + DynPJPerInstr x instructions. The constants are
// calibrated so DRAM contributes the share of system energy the paper's
// platforms exhibit (DRAM-heavy microservers, efficiency-optimized mobile).
type CPUPower struct {
	Name         string
	StaticW      float64
	DynPJPerInst float64
}

// ServerCPUPower returns the Niagara-like microserver envelope.
func ServerCPUPower() CPUPower {
	return CPUPower{Name: "microserver", StaticW: 3.2, DynPJPerInst: 95}
}

// MobileCPUPower returns the Snapdragon-like mobile envelope.
func MobileCPUPower() CPUPower {
	return CPUPower{Name: "mobile", StaticW: 1.0, DynPJPerInst: 110}
}

// CPUEnergy computes the non-DRAM system energy for a run.
func CPUEnergy(p CPUPower, seconds float64, instructions int64) float64 {
	return p.StaticW*seconds + p.DynPJPerInst*1e-12*float64(instructions)
}

// SystemEnergy is the Figure 19 quantity.
type SystemEnergy struct {
	DRAM Breakdown
	CPU  float64
}

// Total returns the full-system energy in joules.
func (s SystemEnergy) Total() float64 { return s.DRAM.Total() + s.CPU }

// RecordMetrics publishes a finished run's energy accounting into the
// observability registry as integer nanojoule counters. Rounding to
// integers before the (commutative) counter adds keeps multi-worker
// metric snapshots byte-identical at any worker count; at nanojoule
// resolution the rounding error is far below the model's fidelity.
func RecordMetrics(o *obs.Obs, b Breakdown, cpuJ, retryJ float64) {
	if !o.Enabled() {
		return
	}
	nj := func(name string, joules float64) {
		o.Counter(name).Add(int64(math.Round(joules * 1e9)))
	}
	nj("energy_dram_background_nj_total", b.Background)
	nj("energy_dram_actpre_nj_total", b.ActPre)
	nj("energy_dram_rdwr_nj_total", b.RdWr)
	nj("energy_dram_refresh_nj_total", b.Refresh)
	nj("energy_dram_io_nj_total", b.IO)
	nj("energy_dram_codec_nj_total", b.Codec)
	nj("energy_cpu_nj_total", cpuJ)
	nj("energy_retry_nj_total", retryJ)
}
