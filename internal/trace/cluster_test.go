package trace

import (
	"fmt"
	"sync"
	"testing"
)

// mkStream builds a distinct published-trace stand-in with nEvents events.
func mkStream(nEvents int) *Trace {
	return &Trace{DRAMCycles: int64(nEvents) + 2, Events: make([]Event, nEvents)}
}

// publishUnder makes the store hold tr under an exact key.
func publishUnder(t *testing.T, s *Store, key string, tr *Trace) {
	t.Helper()
	got, leader, publish, _ := s.Acquire(key)
	if got != nil || !leader {
		t.Fatalf("Acquire(%q) = (%v, leader=%v), want fresh leadership", key, got, leader)
	}
	publish(tr)
}

func TestClusterCandidatesOrderAndIsolation(t *testing.T) {
	s := NewStore()
	a, b := mkStream(4), mkStream(8)
	publishUnder(t, s, "k-a", a)
	publishUnder(t, s, "k-b", b)
	s.AddCandidate("cluster-1", a)
	s.AddCandidate("cluster-1", b)
	s.AddCandidate("cluster-1", a) // idempotent: already filed
	s.AddCandidate("", a)          // unclusterable: no-op

	cands := s.Candidates("cluster-1")
	if len(cands) != 2 || cands[0] != a || cands[1] != b {
		t.Fatalf("Candidates = %v, want [a b] in publication order", cands)
	}
	if got := s.Candidates("cluster-2"); got != nil {
		t.Fatalf("unknown cluster returned %v, want nil", got)
	}
	if got := s.Candidates(""); got != nil {
		t.Fatalf("empty cluster key returned %v, want nil", got)
	}
	// The snapshot is a copy: mutating it must not corrupt the index.
	cands[0] = nil
	if again := s.Candidates("cluster-1"); again[0] != a {
		t.Fatal("Candidates returned the live slice, not a copy")
	}
}

// TestStreamsCountsSharedAdoptions pins the number the cluster store exists
// to shrink: publishing one trace under many exact keys (adoption) is one
// stream, not one per key.
func TestStreamsCountsSharedAdoptions(t *testing.T) {
	s := NewStore()
	tr := mkStream(4)
	for i := 0; i < 5; i++ {
		publishUnder(t, s, fmt.Sprintf("class-%d", i), tr)
	}
	if n := s.Streams(); n != 1 {
		t.Fatalf("Streams() = %d after adopting one trace under 5 keys, want 1", n)
	}
	if n := s.Len(); n != 5 {
		t.Fatalf("Len() = %d, want 5 exact entries", n)
	}
	if got, want := s.SizeBytes(), traceCost(tr); got != want {
		t.Fatalf("SizeBytes() = %d, want one stream's %d", got, want)
	}
}

// TestLockClusterSerializes checks the determinism gate: two goroutines
// contending for one cluster never overlap, and the empty key does not
// serialize at all.
func TestLockClusterSerializes(t *testing.T) {
	s := NewStore()
	var mu sync.Mutex
	inside := 0
	maxInside := 0
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			unlock := s.LockCluster("c")
			defer unlock()
			mu.Lock()
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			mu.Unlock()
			mu.Lock()
			inside--
			mu.Unlock()
		}()
	}
	wg.Wait()
	if maxInside != 1 {
		t.Fatalf("%d leaders inside one cluster's critical section, want 1", maxInside)
	}
	unlockA := s.LockCluster("")
	unlockB := s.LockCluster("") // would deadlock if "" shared a real lock
	unlockA()
	unlockB()
}
