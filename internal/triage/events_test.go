package triage

import (
	"sync"
	"testing"
	"time"
)

func TestHubFanOutAndSequence(t *testing.T) {
	h := NewHub()
	s1 := h.Subscribe(8)
	s2 := h.Subscribe(8)

	e1 := h.Publish(Event{Type: EventSubmitted, Job: "j", Time: time.Unix(1, 0)})
	e2 := h.Publish(Event{Type: EventDone, Job: "j", Time: time.Unix(2, 0)})
	if e1.Seq != 1 || e2.Seq != 2 {
		t.Fatalf("publish stamped seqs %d, %d; want 1, 2", e1.Seq, e2.Seq)
	}
	for _, s := range []*Subscriber{s1, s2} {
		got := <-s.Events()
		if got.Seq != 1 || got.Type != EventSubmitted {
			t.Fatalf("first delivery = %+v", got)
		}
		got = <-s.Events()
		if got.Seq != 2 || got.Type != EventDone {
			t.Fatalf("second delivery = %+v", got)
		}
	}

	s1.Close()
	s1.Close() // idempotent
	if _, open := <-s1.Events(); open {
		t.Fatal("closed subscriber's channel should be closed")
	}
	h.Publish(Event{Type: EventFailed})
	if got := <-s2.Events(); got.Type != EventFailed {
		t.Fatalf("surviving subscriber missed event: %+v", got)
	}

	published, dropped, subs := h.Stats()
	if published != 3 || dropped != 0 || subs != 1 {
		t.Fatalf("Stats = (%d, %d, %d), want (3, 0, 1)", published, dropped, subs)
	}
}

func TestHubDropsOnSlowSubscriber(t *testing.T) {
	h := NewHub()
	slow := h.Subscribe(1)
	h.Publish(Event{Type: EventSubmitted}) // fills the buffer
	h.Publish(Event{Type: EventDone})      // dropped, never blocks

	_, dropped, _ := h.Stats()
	if dropped != 1 {
		t.Fatalf("dropped = %d, want 1", dropped)
	}
	got := <-slow.Events()
	if got.Seq != 1 {
		t.Fatalf("slow subscriber kept seq %d, want 1 (the gap marks the loss)", got.Seq)
	}
	next := h.Publish(Event{Type: EventFailed})
	if got := <-slow.Events(); got.Seq != next.Seq {
		t.Fatalf("post-drop delivery seq %d, want %d", got.Seq, next.Seq)
	}
}

func TestHubClose(t *testing.T) {
	h := NewHub()
	s := h.Subscribe(1)
	h.Close()
	h.Close() // idempotent
	if _, open := <-s.Events(); open {
		t.Fatal("Close must close subscriber channels")
	}
	if e := h.Publish(Event{Type: EventDone}); e.Seq != 0 {
		t.Fatal("publish on a closed hub must not stamp a sequence")
	}
	late := h.Subscribe(1)
	if _, open := <-late.Events(); open {
		t.Fatal("subscribing to a closed hub must return a closed channel")
	}
	late.Close() // must not panic on an unregistered subscriber
}

func TestHubConcurrency(t *testing.T) {
	h := NewHub()
	var wg sync.WaitGroup

	// Churning subscribers while publishers run exercises the lock paths
	// under -race.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				s := h.Subscribe(4)
				select { // drain one if already delivered; never block
				case <-s.Events():
				default:
				}
				s.Close()
			}
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				h.Publish(Event{Type: EventSubmitted, Job: "job"})
			}
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("concurrency test wedged")
	}
	h.Close()

	published, _, _ := h.Stats()
	if published != 800 {
		t.Fatalf("published = %d, want 800", published)
	}
}
