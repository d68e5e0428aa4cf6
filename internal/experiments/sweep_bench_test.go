package experiments

import "testing"

// BenchmarkSweep measures the figure sweep end to end on the reduced golden
// suite, serial vs parallel, from a cold cache each iteration; `make
// profile` runs the serial variant under the CPU profiler. The repo
// benchmark's timing of this sweep is perfbench's sweep-fresh workload. On
// a multi-core host the parallel variant should approach
// min(workers, cores)x.
func benchmarkSweep(b *testing.B, workers int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := NewRunner(goldenOps)
		r.Suite = goldenSuite()
		r.Workers = workers
		tables, err := r.All()
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) != len(Generators()) {
			b.Fatalf("%d tables", len(tables))
		}
	}
}

func BenchmarkSweepSerial(b *testing.B)   { benchmarkSweep(b, 1) }
func BenchmarkSweepParallel(b *testing.B) { benchmarkSweep(b, 0) } // GOMAXPROCS
