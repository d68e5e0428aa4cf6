// Package sim wires the full evaluation stack together: workload streams
// feed the core models, which run against the cache hierarchy, whose misses
// become controller requests scheduled onto the cycle-accurate DRAM model,
// with every burst's bits accounted by the IO model. One Run reproduces one
// bar of the paper's figures.
//
// Re-entrancy contract: Run is safe to call from any number of goroutines
// at once. No package in the stack (sim, scheme, memctrl, dram, cache,
// cpu, code, milcore, fault, energy, workload, bitblock) holds
// package-level mutable state - the only package-level variables anywhere
// are init-time constant tables (the scheme registry among them) - and
// Run builds a private instance of every model it ticks.
// Config is a plain value, safely copyable; the pointers it carries
// (Benchmark, Obs, ReplayTrace) are the caller's to share or not. A
// *workload.Benchmark may feed concurrent runs (its lazy layout memoization
// is synchronized), an Obs metrics registry may too (every update is an
// atomic, commutative integer operation), and a recorded trace is only
// read by replay, but an Obs trace recorder is single-run only. Identical
// Configs produce bit-identical Results regardless of how many runs execute
// concurrently: every stochastic path is seeded from Config alone.
package sim

import (
	"errors"
	"fmt"

	"mil/internal/cache"
	"mil/internal/cpu"
	"mil/internal/dram"
	"mil/internal/energy"
	"mil/internal/memctrl"
	"mil/internal/scheme"
)

// SystemKind selects one of the two evaluated platforms (Table 2).
type SystemKind int

// The evaluated systems.
const (
	// Server is the Niagara-like microserver with DDR4-3200.
	Server SystemKind = iota
	// Mobile is the Snapdragon-like system with LPDDR3-1600.
	Mobile
)

// String implements fmt.Stringer.
func (k SystemKind) String() string {
	if k == Mobile {
		return "mobile-lpddr3"
	}
	return "server-ddr4"
}

// platform bundles one system's sub-configurations.
type platform struct {
	dram     dram.Config
	channels int
	cpu      cpu.Config
	cache    cache.Config
	power    energy.DRAMPower
	cpuPower energy.CPUPower
	// pod is true for the zero-cost (VDDQ-terminated) interface.
	pod bool
	// computeScale multiplies each benchmark's compute padding: the mobile
	// cores spend more cycles per memory operation relative to their
	// (slower, seamless-burst) bus than the server cores do.
	computeScale int64
}

// platformFor returns the Table 2 configuration of a system.
func platformFor(kind SystemKind) platform {
	if kind == Mobile {
		return platform{
			dram: dram.LPDDR3_1600(), channels: 2,
			cpu: cpu.MobileConfig(), cache: cache.MobileConfig(),
			power: energy.LPDDR3Power(), cpuPower: energy.MobileCPUPower(),
			pod: false, computeScale: 44,
		}
	}
	return platform{
		dram: dram.DDR4_3200(), channels: 2,
		cpu: cpu.ServerConfig(), cache: cache.ServerConfig(),
		power: energy.DDR4Power(), cpuPower: energy.ServerCPUPower(),
		pod: true, computeScale: 1,
	}
}

// SchemeNames lists every coding configuration Run accepts, straight
// from the scheme registry (see internal/scheme, and `milsim
// -list-schemes` for the annotated table): the baselines
// (baseline/bi/raw), the MiL framework family
// (mil/mil3/mil-nowropt/mil-x4/mil-degrade), the fixed codecs
// (milc/cafo2/cafo4/lwc3), the Figure 20 fixed burst lengths
// (bl10..bl16), and the adaptive mil-bandit extension.
func SchemeNames() []string { return scheme.Names() }

// FrontEndKey renders every configuration field that shapes the request
// stream at the cache↔memctrl boundary. Scheme and LookaheadX enter only
// through their timing class (scheme.TimingClass) — that collapse is
// exactly what makes trace reuse across codec/policy cells sound.
// Steplock is included because a replayed Result reports the recorded
// run's loop counters; fault and retry knobs are included in full
// because retries feed controller timing back into the front-end.
func (c *Config) FrontEndKey() string {
	benchName := ""
	if c.Benchmark != nil {
		benchName = c.Benchmark.Name
	}
	return fmt.Sprintf("mil-fe-v1|sys=%d|class=%s|bench=%s|ops=%d|max=%d|verify=%v|pd=%v"+
		"|ber=%g|brate=%g|blen=%d|stuck=%v|stuckv=%v|fseed=%d"+
		"|crc=%v|ca=%v|retry=%d/%d/%d/%d|seed=%d|steplock=%v",
		c.System, scheme.TimingClass(c.Scheme, c.LookaheadX, c.Fault.Enabled()), benchName,
		c.MemOpsPerThread, c.MaxCPUCycles, c.Verify, c.PowerDown,
		c.Fault.BER, c.Fault.BurstRate, c.Fault.BurstLen, c.Fault.StuckPins, c.Fault.StuckVal, c.Fault.Seed,
		c.WriteCRC, c.CAParity, c.Retry.MaxRetries, c.Retry.BackoffBase, c.Retry.BackoffMax, c.Retry.StormThreshold,
		c.Seed, c.Steplock)
}

// ClusterKey renders the front-end *inputs* only: FrontEndKey minus the
// timing class. Configurations sharing a ClusterKey ran the same workload
// on the same machine with the same knobs — they differ only in
// codec/policy (and look-ahead), the one axis timingClass predicts
// *statically*. The trace cluster store uses this coarser key to discover
// shared timings *empirically*: candidate traces recorded under any class
// of the cluster are trialled under the replay divergence fence, which
// rejects every mismatch — so a too-coarse key costs a failed trial, never
// a wrong number. That makes it safe for the key to ignore the class
// entirely, letting e.g. the x-sweep cells (distinct classes, often
// identical timing on streaming workloads) converge onto one stream.
//
// Fault injection is the exception (ROADMAP item 2's caveat): silent
// corruption makes the *data* — not just the timing — depend on which
// codec drove the pins, and the divergence fence verifies timing only. A
// fault-cell trace that replays clean under another knob setting could
// still carry the wrong payloads, so fault cells must never cluster:
// ClusterKey returns "" (no cluster) whenever injection is enabled, and
// callers must treat "" as unclusterable. Schemes whose registry
// descriptor declares NeverCluster (mil-bandit: its arm choices feed on
// observed history, not just timing) are unclusterable the same way.
func (c *Config) ClusterKey() string {
	if c.Fault.Enabled() {
		return ""
	}
	if d, ok := scheme.Lookup(c.Scheme); ok && d.NeverCluster {
		return ""
	}
	benchName := ""
	if c.Benchmark != nil {
		benchName = c.Benchmark.Name
	}
	return fmt.Sprintf("mil-cluster-v1|sys=%d|bench=%s|ops=%d|max=%d|verify=%v|pd=%v"+
		"|crc=%v|ca=%v|retry=%d/%d/%d/%d|seed=%d|steplock=%v",
		c.System, benchName,
		c.MemOpsPerThread, c.MaxCPUCycles, c.Verify, c.PowerDown,
		c.WriteCRC, c.CAParity, c.Retry.MaxRetries, c.Retry.BackoffBase, c.Retry.BackoffMax, c.Retry.StormThreshold,
		c.Seed, c.Steplock)
}

// schemeFor builds the policy and phy factory for a scheme on a platform
// by resolving the scheme registry (internal/scheme, the single source
// of truth for scheme names, factories, and timing classes). lookaheadX
// overrides MiL's look-ahead distance when > 0; seed feeds stateful
// adaptive policies (mil-bandit) their private PRNG streams.
func schemeFor(name string, p platform, lookaheadX int, seed uint64) (memctrl.Policy, func() memctrl.Phy, error) {
	pol, newPhy, err := scheme.Build(name, scheme.Platform{POD: p.pod},
		scheme.Options{LookaheadX: lookaheadX, Seed: seed})
	if errors.Is(err, scheme.ErrUnknown) {
		// Same message as before, but keep ErrUnknown reachable through
		// the chain: the CLIs branch on it to print the scheme table.
		return nil, nil, fmt.Errorf("sim: %w", err)
	}
	return pol, newPhy, err
}
