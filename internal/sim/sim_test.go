package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestAtOrdering(t *testing.T) {
	s := New()
	var got []int
	s.At(3, func() { got = append(got, 3) })
	s.At(1, func() { got = append(got, 1) })
	s.At(2, func() { got = append(got, 2) })
	s.RunAll(100)
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { got = append(got, i) })
	}
	s.RunAll(100)
	for i := range got {
		if got[i] != i {
			t.Fatalf("FIFO violated at %d: %v", i, got)
		}
	}
}

func TestAfterAdvancesClock(t *testing.T) {
	s := New()
	var at Time
	s.After(2.5, func() { at = s.Now() })
	s.RunAll(10)
	if at != 2.5 {
		t.Fatalf("fired at %v, want 2.5", at)
	}
	if s.Now() != 2.5 {
		t.Fatalf("clock = %v, want 2.5", s.Now())
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New()
	var trace []Time
	s.At(1, func() {
		trace = append(trace, s.Now())
		s.After(1, func() {
			trace = append(trace, s.Now())
		})
	})
	s.RunAll(10)
	if len(trace) != 2 || trace[0] != 1 || trace[1] != 2 {
		t.Fatalf("trace = %v", trace)
	}
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	e := s.At(1, func() { fired = true })
	s.Cancel(e)
	s.RunAll(10)
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !e.Cancelled() {
		t.Fatal("event not marked cancelled")
	}
	// Double-cancel must be a no-op.
	s.Cancel(e)
}

func TestCancelDuringRun(t *testing.T) {
	s := New()
	var e2 *Event
	fired := false
	s.At(1, func() { s.Cancel(e2) })
	e2 = s.At(2, func() { fired = true })
	s.RunAll(10)
	if fired {
		t.Fatal("event cancelled from earlier event still fired")
	}
}

func TestReschedule(t *testing.T) {
	s := New()
	var at Time
	e := s.At(5, func() { at = s.Now() })
	if !s.Reschedule(e, 2) {
		t.Fatal("reschedule failed")
	}
	s.RunAll(10)
	if at != 2 {
		t.Fatalf("fired at %v, want 2", at)
	}
	if s.Reschedule(e, 3) {
		t.Fatal("reschedule of fired event succeeded")
	}
}

func TestRescheduleLater(t *testing.T) {
	s := New()
	var order []string
	e := s.At(1, func() { order = append(order, "a") })
	s.At(2, func() { order = append(order, "b") })
	s.Reschedule(e, 3)
	s.RunAll(10)
	if len(order) != 2 || order[0] != "b" || order[1] != "a" {
		t.Fatalf("order = %v", order)
	}
}

// TestRearm: a fired or cancelled handle fires again at the re-armed
// time with its original callback, ordered among simultaneous events as
// a fresh At at that point would be; pending and pooled events are
// refused.
func TestRearm(t *testing.T) {
	s := New()
	var order []string
	e := s.At(1, func() { order = append(order, "e") })
	s.RunAll(10)
	s.At(4, func() { order = append(order, "before") })
	s.Rearm(e, 4)
	s.At(4, func() { order = append(order, "after") })
	if !s.Reschedule(e, 5) {
		t.Fatal("re-armed event is not pending")
	}
	s.Reschedule(e, 4) // back to 4, now behind "after"
	s.RunAll(10)
	if want := "e before after e"; fmt.Sprint(order) != "["+want+"]" {
		t.Fatalf("order = %v, want [%s]", order, want)
	}
	s.Cancel(e) // no-op on a fired event
	c := s.At(6, func() { order = append(order, "c") })
	s.Cancel(c)
	s.Rearm(c, 7)
	s.RunAll(10)
	if order[len(order)-1] != "c" || s.Now() != 7 {
		t.Fatalf("cancelled-then-re-armed event: order %v at %v", order, s.Now())
	}
	for _, bad := range []struct {
		name string
		fn   func()
	}{
		{"pending", func() { s.Rearm(s.At(9, func() {}), 10) }},
		{"nil", func() { s.Rearm(nil, 10) }},
		{"past", func() { s.Rearm(c, 1) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Rearm of a %s event did not panic", bad.name)
				}
			}()
			bad.fn()
		}()
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	var fired []Time
	for _, tt := range []Time{1, 2, 3, 4} {
		tt := tt
		s.At(tt, func() { fired = append(fired, tt) })
	}
	n := s.Run(2.5)
	if n != 2 {
		t.Fatalf("processed %d, want 2", n)
	}
	if s.Now() != 2.5 {
		t.Fatalf("clock = %v, want 2.5", s.Now())
	}
	n = s.Run(10)
	if n != 2 {
		t.Fatalf("second run processed %d, want 2", n)
	}
}

func TestRunBoundaryInclusive(t *testing.T) {
	s := New()
	fired := false
	s.At(2, func() { fired = true })
	s.Run(2)
	if !fired {
		t.Fatal("event at exactly the horizon did not fire")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.At(5, func() {})
	s.RunAll(10)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic scheduling in the past")
		}
	}()
	s.At(1, func() {})
}

func TestStop(t *testing.T) {
	s := New()
	count := 0
	for i := 1; i <= 5; i++ {
		s.At(Time(i), func() {
			count++
			if count == 2 {
				s.Stop()
			}
		})
	}
	s.RunAll(100)
	if count != 2 {
		t.Fatalf("count = %d, want 2 after Stop", count)
	}
	// A later RunAll resumes.
	s.RunAll(100)
	if count != 5 {
		t.Fatalf("count = %d, want 5 after resume", count)
	}
}

func TestPendingAndProcessedCounters(t *testing.T) {
	s := New()
	s.At(1, func() {})
	s.At(2, func() {})
	if s.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", s.Pending())
	}
	s.RunAll(10)
	if s.Pending() != 0 || s.Processed() != 2 {
		t.Fatalf("pending=%d processed=%d", s.Pending(), s.Processed())
	}
}

// Property: events fire in nondecreasing time order regardless of the
// insertion order.
func TestPropertyTimeOrdered(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		s := New()
		var fired []Time
		for _, r := range raw {
			tt := Time(r) / 16
			s.At(tt, func() { fired = append(fired, s.Now()) })
		}
		s.RunAll(uint64(len(raw)) + 1)
		if len(fired) != len(raw) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling a random subset fires exactly the complement.
func TestPropertyCancelSubset(t *testing.T) {
	f := func(n uint8, seed int64) bool {
		s := New()
		rng := rand.New(rand.NewSource(seed))
		total := int(n%64) + 1
		firedCount := 0
		events := make([]*Event, total)
		for i := 0; i < total; i++ {
			events[i] = s.At(Time(rng.Intn(50)), func() { firedCount++ })
		}
		cancelled := 0
		for _, e := range events {
			if rng.Intn(2) == 0 {
				s.Cancel(e)
				cancelled++
			}
		}
		s.RunAll(uint64(total) + 1)
		return firedCount == total-cancelled
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// NextAt must report the earliest live event, skipping cancelled heads,
// and report nothing on an empty queue.
func TestNextAt(t *testing.T) {
	s := New()
	if _, ok := s.NextAt(); ok {
		t.Fatal("empty queue reported a next event")
	}
	e1 := s.At(1, func() {})
	s.At(3, func() {})
	if at, ok := s.NextAt(); !ok || at != 1 {
		t.Fatalf("NextAt = %v, %v; want 1, true", at, ok)
	}
	s.Cancel(e1)
	if at, ok := s.NextAt(); !ok || at != 3 {
		t.Fatalf("after cancelling head, NextAt = %v, %v; want 3, true", at, ok)
	}
	s.Step()
	if _, ok := s.NextAt(); ok {
		t.Fatal("drained queue reported a next event")
	}
}

func BenchmarkScheduleAndFire(b *testing.B) {
	s := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.After(1, func() {})
		s.Step()
	}
}
