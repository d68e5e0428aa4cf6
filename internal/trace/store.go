package trace

import (
	"sync"
	"unsafe"
)

// Store is an in-memory singleflight trace cache, keyed by the front-end
// key (sim.Config.FrontEndKey). The sweep engine uses it as a second-level
// cache under the per-configuration result cache: the first cell of a
// trace-group records the front-end once, sibling cells replay it.
//
// Acquire's contract mirrors singleflight: exactly one caller per key
// becomes the leader and MUST settle the entry by calling publish (with
// the recorded trace) or abort (recording failed or was skipped) exactly
// once; everyone else blocks until the leader settles. An aborted entry is
// removed, so a later Acquire for the key elects a fresh leader — callers
// blocked across an abort get a nil trace and fall back to plain
// simulation.
//
// On top of the exact index the store keeps a cluster index keyed by
// sim.Config.ClusterKey — front-end *inputs* only, no timing class
// (DESIGN.md §5.12). AddCandidate files a published stream under its
// cluster; Candidates lists a cluster's streams in publication order so an
// exact-miss leader can trial them under the replay divergence fence
// before paying for a fresh recording. The store itself never judges
// whether a candidate fits — that is the fence's job — it only remembers
// what exists. Nothing is ever evicted: a Store lives as long as one sweep.
//
// A Store is safe for concurrent use and never blocks a leader: waiters
// hold no Store lock while they wait.
type Store struct {
	mu       sync.Mutex
	entries  map[string]*storeEntry
	clusters map[string][]*Trace
	locks    map[string]*sync.Mutex
	// streams holds each distinct recorded trace, however many exact keys
	// have adopted it, with the cluster key it is filed under ("" = not
	// filed).
	streams map[*Trace]string
	size    int64
}

type storeEntry struct {
	done chan struct{}
	tr   *Trace // nil until published; stays nil on abort
}

// traceCost estimates a stream's resident size: the fixed totals plus the
// event slice. Close enough for a footprint report; exactness is not the
// point.
func traceCost(tr *Trace) int64 {
	return int64(unsafe.Sizeof(Trace{})) + int64(len(tr.Events))*int64(unsafe.Sizeof(Event{}))
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		entries:  make(map[string]*storeEntry),
		clusters: make(map[string][]*Trace),
		locks:    make(map[string]*sync.Mutex),
		streams:  make(map[*Trace]string),
	}
}

// LockCluster serializes exact-miss leaders of one cluster: a leader takes
// the lock before trialling candidates and releases it (via the returned
// func) after publishing or aborting. Serialization is what makes the
// adoption split deterministic at any worker count — a later leader always
// sees every earlier same-cluster recording settled, so whether it adopts
// or records depends only on timing equivalence, never on scheduling. The
// empty key (unclusterable) locks nothing.
func (s *Store) LockCluster(clusterKey string) (unlock func()) {
	if clusterKey == "" {
		return func() {}
	}
	s.mu.Lock()
	m := s.locks[clusterKey]
	if m == nil {
		m = &sync.Mutex{}
		s.locks[clusterKey] = m
	}
	s.mu.Unlock()
	m.Lock()
	return m.Unlock
}

// Acquire looks up the trace for key.
//
//	tr != nil                 → a recorded trace is ready; replay it.
//	tr == nil, leader == true → the caller leads: record the front-end,
//	                            then call publish(trace) or abort().
//	tr == nil, leader == false→ the previous leader aborted while the
//	                            caller waited; run a plain simulation.
//
// A leader that adopts a cluster candidate publishes the *candidate* under
// its key — publishing a trace under any number of exact keys files one
// stream, not a copy per key.
func (s *Store) Acquire(key string) (tr *Trace, leader bool, publish func(*Trace), abort func()) {
	s.mu.Lock()
	e := s.entries[key]
	if e == nil {
		e = &storeEntry{done: make(chan struct{})}
		s.entries[key] = e
		s.mu.Unlock()
		publish = func(t *Trace) {
			s.mu.Lock()
			e.tr = t
			if t != nil {
				s.addStreamLocked(t)
			}
			s.mu.Unlock()
			close(e.done)
		}
		abort = func() {
			s.mu.Lock()
			// Only clear our own entry: a later leader may have replaced it
			// already if publish/abort discipline was violated upstream.
			if s.entries[key] == e {
				delete(s.entries, key)
			}
			s.mu.Unlock()
			close(e.done)
		}
		return nil, true, publish, abort
	}
	s.mu.Unlock()
	<-e.done
	return e.tr, false, nil, nil
}

// addStreamLocked counts tr as a resident stream on its first
// publication or filing; later ones share it.
func (s *Store) addStreamLocked(tr *Trace) {
	if _, ok := s.streams[tr]; !ok {
		s.streams[tr] = ""
		s.size += traceCost(tr)
	}
}

// AddCandidate files a published stream under a cluster key so later
// exact-miss leaders can trial it. Filing is idempotent; clusterKey ""
// (unclusterable, e.g. fault-injection cells) is a no-op.
func (s *Store) AddCandidate(clusterKey string, tr *Trace) {
	if clusterKey == "" || tr == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Callers that record outside Acquire file a stream before any exact
	// publication; it still counts toward Streams and SizeBytes.
	s.addStreamLocked(tr)
	if s.streams[tr] != "" {
		return
	}
	s.streams[tr] = clusterKey
	s.clusters[clusterKey] = append(s.clusters[clusterKey], tr)
}

// Candidates returns the cluster's streams in publication order (a copy;
// callers may trial them without holding the store lock).
func (s *Store) Candidates(clusterKey string) []*Trace {
	if clusterKey == "" {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cands := s.clusters[clusterKey]
	if len(cands) == 0 {
		return nil
	}
	out := make([]*Trace, len(cands))
	copy(out, cands)
	return out
}

// Len reports the number of settled or in-flight exact entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Streams reports the number of distinct recorded traces resident —
// the number the cluster store exists to shrink: exact keys that adopted
// a sibling's stream share it rather than adding one.
func (s *Store) Streams() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.streams)
}

// SizeBytes reports the estimated resident bytes of published streams.
func (s *Store) SizeBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}
