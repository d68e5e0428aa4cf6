package memctrl

import "fmt"

// Histogram is a fixed-bucket histogram over int64 samples, used for the
// idle-gap (Figure 4) and slack (Figure 6) distributions.
type Histogram struct {
	// Edges are upper bounds (inclusive) of each bucket; a final overflow
	// bucket catches everything beyond the last edge.
	Edges  []int64
	Counts []int64
}

// NewHistogram builds a histogram with the given inclusive upper edges.
func NewHistogram(edges ...int64) *Histogram {
	return &Histogram{Edges: edges, Counts: make([]int64, len(edges)+1)}
}

// Add records one sample.
func (h *Histogram) Add(v int64) {
	for i, e := range h.Edges {
		if v <= e {
			h.Counts[i]++
			return
		}
	}
	h.Counts[len(h.Edges)]++
}

// Total returns the number of samples.
func (h *Histogram) Total() int64 {
	var t int64
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// Fractions returns each bucket's share of the total (zeros if empty).
func (h *Histogram) Fractions() []float64 {
	out := make([]float64, len(h.Counts))
	t := h.Total()
	if t == 0 {
		return out
	}
	for i, c := range h.Counts {
		out[i] = float64(c) / float64(t)
	}
	return out
}

// Labels renders bucket labels like "0", "1-4", ">32".
func (h *Histogram) Labels() []string {
	out := make([]string, len(h.Counts))
	lo := int64(0)
	for i, e := range h.Edges {
		if lo == e {
			out[i] = fmt.Sprintf("%d", e)
		} else {
			out[i] = fmt.Sprintf("%d-%d", lo, e)
		}
		lo = e + 1
	}
	out[len(h.Edges)] = fmt.Sprintf(">%d", h.Edges[len(h.Edges)-1])
	return out
}

// Merge adds other's counts into h; the edge sets must match.
func (h *Histogram) Merge(other *Histogram) {
	if len(h.Counts) != len(other.Counts) {
		panic("memctrl: merging histograms with different shapes")
	}
	for i, c := range other.Counts {
		h.Counts[i] += c
	}
}

// Stats aggregates everything one controller observes. All cycle counts are
// DRAM cycles.
type Stats struct {
	Reads      int64 // column reads issued
	Writes     int64 // column writes issued
	Activates  int64
	Precharges int64
	Refreshes  int64
	Forwards   int64 // reads served from the write queue

	Zeros      int64 // transmitted zeros across all bursts (Figure 17)
	CostUnits  int64 // IO energy units (zeros on POD, toggles on LPDDR3)
	BurstBeats int64 // total data beats moved
	BusyCycles int64 // cycles the data bus carried data

	IdlePendingCycles int64 // bus idle, requests queued (Figure 5)
	IdleEmptyCycles   int64 // bus idle, no requests queued
	Ticks             int64

	ReadLatencySum int64 // enqueue-to-data DRAM cycles over completed reads
	ReadsCompleted int64

	DemandReads          int64 // column reads serving demand misses
	DemandLatencySum     int64
	DemandReadsCompleted int64

	RQOccupancySum int64
	WQOccupancySum int64

	PowerDownCycles int64 // rank-cycles spent in fast power-down
	PowerDownExits  int64 // wake-ups paying tXP

	// CodecBursts counts column commands per codec name (Figure 22).
	CodecBursts map[string]int64

	GapHist    *Histogram // idle cycles between successive bursts (Figure 4)
	SlackHist  *Histogram // slack between successive bursts (Figure 6)
	BackToBack int64      // gap == 0 pairs
	GapPairs   int64

	// Reliability counters, all zero on a clean link. Conservation
	// invariants (checked by the tests): every issued column command either
	// retires or is requeued, so Writes == WritesCompleted + WriteRetries
	// and Reads == ReadsCompleted + ReadRetries once the controller drains;
	// and every detected failure either requeues or exhausts its budget, so
	// WriteCRCAlerts + CAParityAlerts + ReadDecodeFailures ==
	// WriteRetries + ReadRetries + RetriesExhausted.
	WritesCompleted    int64 // writes retired (committed or abandoned)
	WriteCRCAlerts     int64 // write bursts NACKed by device write-CRC
	CAParityAlerts     int64 // column commands rejected by CA parity
	ReadDecodeFailures int64 // read bursts the controller-side decoder rejected
	WriteRetries       int64 // failed write bursts requeued for replay
	ReadRetries        int64 // failed read bursts requeued for replay
	RetriesExhausted   int64 // requests abandoned after the retry budget
	RetryStorms        int64 // entries into the retry-storm backoff regime
	SilentErrors       int64 // corrupted bursts delivered undetected
	BitErrors          int64 // wire bit flips injected on this channel
	RetryBeats         int64 // beats consumed by bursts that ended NACKed
	RetryCostUnits     int64 // IO energy units wasted on failed bursts
	CRCBeats           int64 // extra beats appended for write CRC
}

// busHistEdges are the bucket edges shared by the gap and slack histograms.
var busHistEdges = []int64{0, 2, 4, 8, 16, 32, 64}

// NewStats returns zeroed statistics.
func NewStats() *Stats {
	return &Stats{
		CodecBursts: make(map[string]int64),
		GapHist:     NewHistogram(busHistEdges...),
		SlackHist:   NewHistogram(busHistEdges...),
	}
}

// Merge accumulates other into s (for multi-channel aggregation).
func (s *Stats) Merge(other *Stats) {
	s.Reads += other.Reads
	s.Writes += other.Writes
	s.Activates += other.Activates
	s.Precharges += other.Precharges
	s.Refreshes += other.Refreshes
	s.Forwards += other.Forwards
	s.Zeros += other.Zeros
	s.CostUnits += other.CostUnits
	s.BurstBeats += other.BurstBeats
	s.BusyCycles += other.BusyCycles
	s.IdlePendingCycles += other.IdlePendingCycles
	s.IdleEmptyCycles += other.IdleEmptyCycles
	s.Ticks += other.Ticks
	s.ReadLatencySum += other.ReadLatencySum
	s.ReadsCompleted += other.ReadsCompleted
	s.DemandReads += other.DemandReads
	s.DemandLatencySum += other.DemandLatencySum
	s.DemandReadsCompleted += other.DemandReadsCompleted
	s.RQOccupancySum += other.RQOccupancySum
	s.WQOccupancySum += other.WQOccupancySum
	s.PowerDownCycles += other.PowerDownCycles
	s.PowerDownExits += other.PowerDownExits
	for k, v := range other.CodecBursts {
		s.CodecBursts[k] += v
	}
	s.GapHist.Merge(other.GapHist)
	s.SlackHist.Merge(other.SlackHist)
	s.BackToBack += other.BackToBack
	s.GapPairs += other.GapPairs
	s.WritesCompleted += other.WritesCompleted
	s.WriteCRCAlerts += other.WriteCRCAlerts
	s.CAParityAlerts += other.CAParityAlerts
	s.ReadDecodeFailures += other.ReadDecodeFailures
	s.WriteRetries += other.WriteRetries
	s.ReadRetries += other.ReadRetries
	s.RetriesExhausted += other.RetriesExhausted
	s.RetryStorms += other.RetryStorms
	s.SilentErrors += other.SilentErrors
	s.BitErrors += other.BitErrors
	s.RetryBeats += other.RetryBeats
	s.RetryCostUnits += other.RetryCostUnits
	s.CRCBeats += other.CRCBeats
}

// Failures returns the total detected link failures.
func (s *Stats) Failures() int64 {
	return s.WriteCRCAlerts + s.CAParityAlerts + s.ReadDecodeFailures
}

// Retries returns the total replayed bursts.
func (s *Stats) Retries() int64 { return s.WriteRetries + s.ReadRetries }

// BusUtilization returns the fraction of cycles the data bus carried data.
func (s *Stats) BusUtilization() float64 {
	if s.Ticks == 0 {
		return 0
	}
	return float64(s.BusyCycles) / float64(s.Ticks)
}

// AvgDemandLatency returns the mean demand-read service latency in DRAM
// cycles (prefetch latencies excluded).
func (s *Stats) AvgDemandLatency() float64 {
	if s.DemandReadsCompleted == 0 {
		return 0
	}
	return float64(s.DemandLatencySum) / float64(s.DemandReadsCompleted)
}

// AvgReadLatency returns the mean read service latency in DRAM cycles.
func (s *Stats) AvgReadLatency() float64 {
	if s.ReadsCompleted == 0 {
		return 0
	}
	return float64(s.ReadLatencySum) / float64(s.ReadsCompleted)
}

// ColumnCommands returns reads+writes issued.
func (s *Stats) ColumnCommands() int64 { return s.Reads + s.Writes }
