package sim

import (
	"testing"

	"mil/internal/trace"
	"mil/internal/workload"
)

// benchReplayCfg is the configuration the replay benchmarks drive: a
// mid-size MiL cell, the same shape the sweep engine replays by the
// hundreds. The op budget matches the replay-equivalence tests.
func benchReplayCfg(tb testing.TB, bench string) Config {
	tb.Helper()
	b, err := workload.ByName(bench)
	if err != nil {
		tb.Fatal(err)
	}
	return Config{System: Server, Scheme: "mil", Benchmark: b, MemOpsPerThread: 1200, Seed: 42}
}

// recordOnce records the benchmark configuration's trace outside the timed
// region.
func recordOnce(tb testing.TB, cfg Config) *trace.Trace {
	tb.Helper()
	var tr *trace.Trace
	rcfg := cfg
	rcfg.RecordTrace = func(t *trace.Trace) { tr = t }
	if _, err := Run(rcfg); err != nil {
		tb.Fatal(err)
	}
	return tr
}

// BenchmarkReplay measures the replay fast path: driving the memory backend
// from a recorded trace. This is the unit of work the sweep engine's trace
// cache performs per hit, so its cost against BenchmarkFreshSim is the
// per-cell saving the cache buys. The steady-state target is 0 allocs/op
// (divergence diagnostics allocate only on mismatch).
func BenchmarkReplay(b *testing.B) {
	for _, bench := range []string{"STRMATCH", "GUPS"} {
		b.Run(bench, func(b *testing.B) {
			cfg := benchReplayCfg(b, bench)
			tr := recordOnce(b, cfg)
			rcfg := cfg
			rcfg.ReplayTrace = tr
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(rcfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFreshSim is the fresh-simulation baseline BenchmarkReplay is
// raced against.
func BenchmarkFreshSim(b *testing.B) {
	for _, bench := range []string{"STRMATCH", "GUPS"} {
		b.Run(bench, func(b *testing.B) {
			cfg := benchReplayCfg(b, bench)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
