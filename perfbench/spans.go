package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"

	"mil/internal/obs"
)

// spanLog keeps a traced run's spans in memory, on the obs package's
// Chrome trace-event recorder, and writes them out at the end. Timestamps
// are host nanoseconds since the log was created. It is not safe for
// concurrent use: concurrent work records its timestamps first and adds
// the spans afterwards. A nil *spanLog records nothing.
type spanLog struct {
	t0     time.Time
	tr     *obs.Trace
	tracks map[string]*obs.Track
}

func newSpanLog() *spanLog {
	return &spanLog{t0: time.Now(), tr: obs.NewTrace(0), tracks: map[string]*obs.Track{}}
}

func (s *spanLog) track(name string) *obs.Track {
	tk := s.tracks[name]
	if tk == nil {
		tk = s.tr.NewTrack(name, 1)
		s.tracks[name] = tk
	}
	return tk
}

// span records [start, end) on the named track.
func (s *spanLog) span(track, name string, start, end time.Time) {
	if s == nil {
		return
	}
	s.track(track).Slice(name, start.Sub(s.t0).Nanoseconds(), end.Sub(s.t0).Nanoseconds(), obs.Args{})
}

// timed runs f and records it as a span.
func (s *spanLog) timed(track, name string, f func()) {
	start := time.Now()
	f()
	s.span(track, name, start, time.Now())
}

// cellSpan is one cell's host interval.
type cellSpan struct {
	label      string
	replay     bool
	start, end time.Time
}

// cells lays the cells out on as few lanes as keep each lane's spans
// disjoint (one lane per busy worker, give or take the millisecond
// rounding of the reconstruction).
func (s *spanLog) cells(cs []cellSpan) {
	if s == nil {
		return
	}
	sorted := append([]cellSpan(nil), cs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].start.Before(sorted[j].start) })
	var laneEnd []time.Time
	for _, c := range sorted {
		lane := -1
		for i, e := range laneEnd {
			if !c.start.Before(e) {
				lane = i
				break
			}
		}
		if lane < 0 {
			lane = len(laneEnd)
			laneEnd = append(laneEnd, time.Time{})
		}
		laneEnd[lane] = c.end
		how := "fresh"
		if c.replay {
			how = "replay"
		}
		s.span(fmt.Sprintf("cells lane %d", lane), how+" "+c.label, c.start, c.end)
	}
}

// write exports the spans, headed by a track whose name stamps the
// environment.
func (s *spanLog) write(path string, e env) error {
	s.tr.NewTrack(fmt.Sprintf("perfbench workload=%s seed=%d commit=%s source=%s go=%s num_cpu=%d gomaxprocs=%d workers=%d",
		e.Workload, e.Seed, e.Commit, e.SourceSHA, e.GoVersion, e.NumCPU, e.GOMAXPROCS, e.Workers), 1)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := s.tr.WriteJSON(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
