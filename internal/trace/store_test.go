package trace

import (
	"sync"
	"testing"
)

func TestStoreLeaderPublish(t *testing.T) {
	s := NewStore()
	tr, leader, publish, _ := s.Acquire("k")
	if tr != nil || !leader {
		t.Fatalf("first Acquire: got (%v, leader=%v), want (nil, true)", tr, leader)
	}

	// Waiters must block until the leader publishes, then all see the trace.
	const waiters = 8
	var wg sync.WaitGroup
	got := make([]*Trace, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w, lead, _, _ := s.Acquire("k")
			if lead {
				t.Error("waiter elected leader while the entry was claimed")
			}
			got[i] = w
		}(i)
	}
	want := mkStream(4)
	publish(want)
	wg.Wait()
	for i, w := range got {
		if w != want {
			t.Fatalf("waiter %d got %p, want the published trace %p", i, w, want)
		}
	}

	// Later Acquires hit the published trace without waiting.
	if w, lead, _, _ := s.Acquire("k"); w != want || lead {
		t.Fatalf("post-publish Acquire: got (%p, leader=%v), want (%p, false)", w, lead, want)
	}
	if n := s.Len(); n != 1 {
		t.Fatalf("store holds %d entries, want 1", n)
	}
}

func TestStoreLeaderAbort(t *testing.T) {
	s := NewStore()
	_, leader, _, abort := s.Acquire("k")
	if !leader {
		t.Fatal("first Acquire must lead")
	}
	done := make(chan *Trace, 1)
	ready := make(chan struct{})
	go func() {
		close(ready)
		w, lead, _, _ := s.Acquire("k")
		if lead {
			t.Error("concurrent waiter led a claimed entry")
		}
		done <- w
	}()
	<-ready
	abort()
	if w := <-done; w != nil {
		t.Fatalf("waiter of an aborted entry got %p, want nil (fall back to a full run)", w)
	}
	// The aborted entry is gone: the next Acquire leads again and can publish.
	tr, leader, publish, _ := s.Acquire("k")
	if tr != nil || !leader {
		t.Fatalf("post-abort Acquire: got (%v, leader=%v), want (nil, true)", tr, leader)
	}
	want := mkStream(4)
	publish(want)
	if w, lead, _, _ := s.Acquire("k"); w != want || lead {
		t.Fatal("publish after an abort did not take")
	}
}

func TestStoreKeysIndependent(t *testing.T) {
	s := NewStore()
	_, leadA, publishA, _ := s.Acquire("a")
	_, leadB, _, abortB := s.Acquire("b")
	if !leadA || !leadB {
		t.Fatal("distinct keys must elect independent leaders")
	}
	trA := mkStream(4)
	publishA(trA)
	abortB()
	if w, _, _, _ := s.Acquire("a"); w != trA {
		t.Fatal("key a lost its trace")
	}
	if w, lead, _, _ := s.Acquire("b"); w != nil || !lead {
		t.Fatal("aborting b must not disturb a, and b must lead again")
	}
	if n := s.Len(); n != 2 {
		t.Fatalf("store holds %d entries, want 2", n)
	}
}
