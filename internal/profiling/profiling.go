// Package profiling wires the runtime/pprof collectors behind cmd/milsim's
// -cpuprofile/-memprofile flags and perfbench's per-module attribution, so
// the codec and scheduler hot paths can be inspected with `go tool pprof`
// (`make profile` profiles a whole sweep through go test's flags of the
// same names).
package profiling

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins CPU profiling into cpuPath (when non-empty) and returns a
// stop function that finishes the CPU profile and snapshots the heap into
// memPath (when non-empty). Either path may be empty; stop is never nil and
// must be called before the process exits for the profiles to be valid.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("profiling: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("profiling: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("profiling: %w", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return fmt.Errorf("profiling: %w", err)
			}
			defer f.Close()
			runtime.GC() // settle allocation statistics before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				return fmt.Errorf("profiling: write heap profile: %w", err)
			}
		}
		return nil
	}, nil
}
