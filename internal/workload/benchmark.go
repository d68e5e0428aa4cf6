package workload

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"mil/internal/bitblock"
	"mil/internal/cpu"
)

// Region is one address-space segment of a benchmark with homogeneous data.
type Region struct {
	Name  string
	Lines int64 // size in cache lines
	Data  DataClass
	// Shared regions are accessed by all threads (read-mostly inputs);
	// private regions are partitioned per thread.
	Shared bool

	base int64 // assigned by finalize
}

// BurstKind classifies an access burst.
type BurstKind int

// Burst kinds.
const (
	// Stream walks lines sequentially (with a stride) through the thread's
	// partition of the region.
	Stream BurstKind = iota
	// Gather touches uniformly random lines of the region.
	Gather
	// RMW loads then stores a random line (GUPS-style update).
	RMW
	// WordScan walks 8-byte words within lines sequentially, producing L1
	// locality (eight accesses per line).
	WordScan
)

// Burst describes one weighted access pattern in a benchmark's mix.
type Burst struct {
	Weight      int
	Region      int
	Kind        BurstKind
	Length      int     // memory operations per burst
	StrideLines int64   // Stream: line stride (>=1)
	WriteFrac   float64 // fraction of operations that are stores
}

// Benchmark is one synthesized application.
type Benchmark struct {
	Name string
	// Suite and Input record the provenance from Table 3 for documentation.
	Suite string
	Input string

	Regions []Region
	Bursts  []Burst
	// ComputePerMem is the compute-instruction count inserted between
	// memory operations: the memory-intensity dial.
	ComputePerMem int64

	totalLines  int64
	totalWeight int

	// The lazy layout memoization below is what makes a *Benchmark safe to
	// share between concurrent runs: finalize is the only mutation, it is
	// idempotent, and after it fires every field above is read-only. The
	// atomic flag keeps the per-access fast path (LineData, StoreData)
	// lock-free; the mutex serializes the one-time slow path. Streams
	// returned by NewStreamsSeeded are NOT shared - each run gets its own.
	finalizeMu sync.Mutex
	finalized  atomic.Bool
	finalErr   error
}

// WithComputeScale returns a copy of the benchmark whose compute padding is
// multiplied by scale (>= 1). The simulator uses it to calibrate per-platform
// compute/memory balance: the mobile cores spend more cycles per memory
// operation relative to their bus than the server cores do.
func (b *Benchmark) WithComputeScale(scale int64) *Benchmark {
	if scale < 1 {
		scale = 1
	}
	// Build the copy field by field (never `*b`: that would copy the
	// finalize lock and the memoized layout, and re-finalizing stale sums
	// would double them). The fresh value re-finalizes from scratch.
	out := &Benchmark{
		Name: b.Name, Suite: b.Suite, Input: b.Input,
		Regions:       append([]Region(nil), b.Regions...),
		Bursts:        append([]Burst(nil), b.Bursts...),
		ComputePerMem: b.ComputePerMem * scale,
	}
	for i := range out.Regions {
		out.Regions[i].base = 0
	}
	if out.ComputePerMem == 0 {
		out.ComputePerMem = scale - 1
	}
	return out
}

// finalize lays regions out in line space and validates the spec. It is
// safe (and cheap) to call from concurrent runs sharing one Benchmark.
func (b *Benchmark) finalize() error {
	if b.finalized.Load() {
		return b.finalErr
	}
	b.finalizeMu.Lock()
	defer b.finalizeMu.Unlock()
	if b.finalized.Load() {
		return b.finalErr
	}
	b.finalErr = b.doFinalize()
	b.finalized.Store(true)
	return b.finalErr
}

func (b *Benchmark) doFinalize() error {
	if len(b.Regions) == 0 || len(b.Bursts) == 0 {
		return fmt.Errorf("workload %s: empty spec", b.Name)
	}
	base := int64(0)
	for i := range b.Regions {
		r := &b.Regions[i]
		if r.Lines <= 0 || r.Data == nil {
			return fmt.Errorf("workload %s: bad region %q", b.Name, r.Name)
		}
		r.base = base
		base += r.Lines
	}
	b.totalLines = base
	for _, bu := range b.Bursts {
		if bu.Region < 0 || bu.Region >= len(b.Regions) {
			return fmt.Errorf("workload %s: burst region %d out of range", b.Name, bu.Region)
		}
		if bu.Weight <= 0 || bu.Length <= 0 {
			return fmt.Errorf("workload %s: burst weight/length %d/%d", b.Name, bu.Weight, bu.Length)
		}
		if bu.Kind == Stream && bu.StrideLines <= 0 {
			return fmt.Errorf("workload %s: stream stride %d", b.Name, bu.StrideLines)
		}
		b.totalWeight += bu.Weight
	}
	return nil
}

// Lines returns the benchmark's total footprint in cache lines.
func (b *Benchmark) Lines() int64 {
	if err := b.finalize(); err != nil {
		panic(err)
	}
	return b.totalLines
}

// seed derives the benchmark's deterministic content seed.
func (b *Benchmark) seed() uint64 {
	h := uint64(1469598103934665603)
	for _, c := range []byte(b.Name) {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// LineData returns the initial contents of a line (region-dependent).
func (b *Benchmark) LineData(line int64) bitblock.Block {
	if err := b.finalize(); err != nil {
		panic(err)
	}
	if line < 0 || line >= b.totalLines {
		return RandomData{}.Line(b.seed(), line)
	}
	for i := range b.Regions {
		r := &b.Regions[i]
		if line < r.base+r.Lines {
			return r.Data.Line(b.seed()+uint64(i)*0x9e37, line-r.base)
		}
	}
	panic("workload: unreachable region lookup")
}

// StoreData returns the contents a store (or a writeback of a stored line)
// carries: the same data class as the region, re-keyed by a write sequence
// number so successive writes move fresh values of the right shape.
func (b *Benchmark) StoreData(line int64, seq uint64) bitblock.Block {
	if err := b.finalize(); err != nil {
		panic(err)
	}
	if line < 0 || line >= b.totalLines {
		return RandomData{}.Line(b.seed()^seq, line)
	}
	for i := range b.Regions {
		r := &b.Regions[i]
		if line < r.base+r.Lines {
			if sd, ok := r.Data.(StoreDataClass); ok {
				return sd.StoreLine(b.seed()+uint64(i)*0x9e37, line-r.base, seq)
			}
			return r.Data.Line(b.seed()+uint64(i)*0x9e37+mix64(seq), line-r.base)
		}
	}
	panic("workload: unreachable region lookup")
}

// NewStreams builds the per-thread instruction streams: threads hardware
// contexts, each issuing memOps memory operations.
func (b *Benchmark) NewStreams(threads int, memOps int64) ([]cpu.Stream, error) {
	return b.NewStreamsSeeded(threads, memOps, 0)
}

// NewStreamsSeeded is NewStreams with an explicit run seed perturbing the
// per-thread access-pattern streams. Seed 0 selects exactly the default
// (benchmark-name-derived) streams, so seeded and legacy call sites agree
// bit for bit unless a seed is actually requested.
func (b *Benchmark) NewStreamsSeeded(threads int, memOps int64, seed uint64) ([]cpu.Stream, error) {
	if err := b.finalize(); err != nil {
		return nil, err
	}
	if threads <= 0 || memOps <= 0 {
		return nil, fmt.Errorf("workload %s: %d threads x %d ops", b.Name, threads, memOps)
	}
	base := int64(b.seed())
	if seed != 0 {
		base = int64(b.seed() ^ mix64(seed))
	}
	out := make([]cpu.Stream, threads)
	for t := 0; t < threads; t++ {
		out[t] = &threadStream{
			b: b, tid: t, threads: threads,
			rng:     rand.New(rand.NewSource(base + int64(t)*7919)),
			opsLeft: memOps,
			cursor:  make([]int64, len(b.Bursts)),
		}
	}
	return out, nil
}

// threadStream is one hardware thread's generator.
type threadStream struct {
	b       *Benchmark
	tid     int
	threads int
	rng     *rand.Rand
	opsLeft int64
	cursor  []int64 // per-burst stream position (within the region partition),
	// so each burst spec is its own clean stream for the prefetcher,
	// like the distinct arrays of the original kernels

	burst     *Burst
	burstIdx  int
	burstLeft int
	// queued ops to emit before picking the next memory access
	queue []cpu.Op
}

// partition returns the [lo, hi) line sub-range of region ri this thread
// owns (the whole region when shared).
func (s *threadStream) partition(ri int) (int64, int64) {
	r := &s.b.Regions[ri]
	if r.Shared || int64(s.threads) > r.Lines {
		return r.base, r.base + r.Lines
	}
	per := r.Lines / int64(s.threads)
	lo := r.base + int64(s.tid)*per
	return lo, lo + per
}

// pickBurst selects the next burst by weight.
func (s *threadStream) pickBurst() {
	w := s.rng.Intn(s.b.totalWeight)
	for i := range s.b.Bursts {
		w -= s.b.Bursts[i].Weight
		if w < 0 {
			s.burst = &s.b.Bursts[i]
			s.burstIdx = i
			s.burstLeft = s.burst.Length
			return
		}
	}
	panic("workload: burst weights inconsistent")
}

// Next implements cpu.Stream.
func (s *threadStream) Next() (cpu.Op, bool) {
	if len(s.queue) > 0 {
		op := s.queue[0]
		s.queue = s.queue[1:]
		return op, true
	}
	if s.opsLeft <= 0 {
		return cpu.Op{}, false
	}
	if s.burst == nil || s.burstLeft <= 0 {
		s.pickBurst()
	}
	s.emit()
	op := s.queue[0]
	s.queue = s.queue[1:]
	return op, true
}

// emit enqueues the next memory operation (plus its compute padding).
func (s *threadStream) emit() {
	bu := s.burst
	lo, hi := s.partition(bu.Region)
	span := hi - lo

	var addr int64
	write := false
	switch bu.Kind {
	case Stream:
		line := lo + s.cursor[s.burstIdx]
		s.cursor[s.burstIdx] = (s.cursor[s.burstIdx] + bu.StrideLines) % span
		addr = line * 64
		write = bu.WriteFrac > 0 && s.rng.Float64() < bu.WriteFrac
	case Gather:
		addr = (lo + s.rng.Int63n(span)) * 64
		write = bu.WriteFrac > 0 && s.rng.Float64() < bu.WriteFrac
	case RMW:
		line := lo + s.rng.Int63n(span)
		addr = line * 64
		// load then store the same line
		s.push(cpu.Op{Kind: cpu.OpLoad, Addr: addr})
		s.push(cpu.Op{Kind: cpu.OpStore, Addr: addr})
		s.burstLeft--
		return
	case WordScan:
		word := s.cursor[s.burstIdx]
		s.cursor[s.burstIdx] = (s.cursor[s.burstIdx] + 1) % (span * 8)
		addr = lo*64 + word*8
		write = bu.WriteFrac > 0 && s.rng.Float64() < bu.WriteFrac
	default:
		panic(fmt.Sprintf("workload: unknown burst kind %d", bu.Kind))
	}

	kind := cpu.OpLoad
	if write {
		kind = cpu.OpStore
	}
	s.push(cpu.Op{Kind: kind, Addr: addr})
	s.burstLeft--
}

// push enqueues a memory op preceded by the benchmark's compute padding and
// charges the memory-op budget.
func (s *threadStream) push(op cpu.Op) {
	if s.b.ComputePerMem > 0 {
		s.queue = append(s.queue, cpu.Op{Kind: cpu.OpCompute, N: s.b.ComputePerMem})
	}
	s.queue = append(s.queue, op)
	s.opsLeft--
}
