package sim

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mil/internal/fault"
	"mil/internal/workload"
)

// TestFrontEndKeyGolden snapshots FrontEndKey and ClusterKey for every
// registered scheme across the axes the registry controls (look-ahead,
// fault injection). The keys name the trace streams a sweep shares
// (DESIGN.md §5.11-§5.12), so any drift — a renamed timing class, a
// scheme switching clusters — silently orphans or mis-shares caches;
// this golden turns that into a reviewed diff. Re-bless with -update.
func TestFrontEndKeyGolden(t *testing.T) {
	var sb strings.Builder
	for _, name := range SchemeNames() {
		for _, x := range []int{0, 8} {
			for _, faulty := range []bool{false, true} {
				cfg := Config{System: Server, Scheme: name, LookaheadX: x, MemOpsPerThread: 1000}
				if faulty {
					cfg.Fault = fault.Config{BER: 1e-4}
				}
				cluster := cfg.ClusterKey()
				if cluster == "" {
					cluster = "(unclusterable)"
				}
				fmt.Fprintf(&sb, "scheme=%s x=%d fault=%v\n  fe:      %s\n  cluster: %s\n",
					name, x, faulty, cfg.FrontEndKey(), cluster)
			}
		}
	}
	got := []byte(sb.String())

	path := filepath.Join("testdata", "keys", "frontend_keys.golden")
	if *updateObs {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to bless): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("front-end keys drifted from golden (re-bless with -update if intentional):\n%s",
			diffLines(string(want), string(got)))
	}
}

// diffLines renders the first few differing lines of two texts.
func diffLines(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var sb strings.Builder
	shown := 0
	for i := 0; shown < 6 && (i < len(w) || i < len(g)); i++ {
		wl, gl := "", ""
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&sb, "line %d:\n  -%s\n  +%s\n", i+1, wl, gl)
			shown++
		}
	}
	return sb.String()
}

// TestBanditLoopModesAgree is mil-bandit's loop-equivalence differential:
// the adaptive policy observes epochs at controller-issued burst
// boundaries, so the event loop's cycle skipping must deliver the exact
// same feedback sequence as the steplock reference — per seed, byte for
// byte. GUPS keeps the write mix high enough that the probes see real
// data every epoch.
func TestBanditLoopModesAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep is slow")
	}
	if raceEnabled {
		t.Skip("single-threaded loop-mode differential; nothing to race")
	}
	b, err := workload.ByName("GUPS")
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{0, 42} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			step, event := runBoth(t, Config{
				System: Server, Scheme: "mil-bandit", Benchmark: b,
				MemOpsPerThread: 1500, Seed: seed,
			})
			if len(event.Mem.CodecBursts) == 0 {
				t.Fatal("no codec bursts recorded; bandit never played")
			}
			requireIdentical(t, step, event)
		})
	}
}
