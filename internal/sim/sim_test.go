package sim

import (
	"strings"
	"testing"
	"time"
)

func TestClockOrdering(t *testing.T) {
	c := NewClock(1)
	var order []int
	c.At(30*time.Millisecond, func() { order = append(order, 3) })
	c.At(10*time.Millisecond, func() { order = append(order, 1) })
	c.At(20*time.Millisecond, func() { order = append(order, 2) })
	if n := c.Run(); n != 3 {
		t.Fatalf("Run processed %d events, want 3", n)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events ran out of order: %v", order)
	}
	if c.Now() != 30*time.Millisecond {
		t.Fatalf("clock at %v, want 30ms", c.Now())
	}
}

func TestClockFIFOAtSameTime(t *testing.T) {
	c := NewClock(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		c.At(time.Second, func() { order = append(order, i) })
	}
	c.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-timestamp events not FIFO: %v", order)
		}
	}
}

// TestClockFIFOAcrossNestedSameTimeScheduling: an event scheduled at
// the current instant runs after everything already queued for it,
// whether its bucket still holds events (appended at the tail) or was
// just drained (a fresh bucket for the same time).
func TestClockFIFOAcrossNestedSameTimeScheduling(t *testing.T) {
	c := NewClock(1)
	var order []string
	at := func(name string, then func()) func() {
		return func() {
			order = append(order, name)
			if then != nil {
				then()
			}
		}
	}
	c.At(time.Second, at("a", func() {
		c.At(time.Second, at("c", func() { c.At(time.Second, at("e", nil)) }))
	}))
	c.At(time.Second, at("b", func() { c.At(time.Second, at("d", nil)) }))
	c.Run()
	if got := strings.Join(order, ""); got != "abcde" {
		t.Fatalf("same-instant order %q, want abcde", got)
	}
}

// TestClockResetRecyclesQueuedNodes: Reset drains every queued event
// and bucket into the pool, and the reset clock schedules from them.
func TestClockResetRecyclesQueuedNodes(t *testing.T) {
	p := &EventPool{}
	c := NewClock(1)
	c.SetEventPool(p)
	for i := 0; i < 5; i++ {
		c.At(time.Duration(i%2)*time.Second, func() { t.Fatal("drained event fired") })
	}
	c.Reset(2)
	if got := p.Retained(); got != 7 {
		t.Fatalf("Reset pooled %d nodes, want 7 (5 events + 2 buckets)", got)
	}
	fired := 0
	c.At(time.Second, func() { fired++ })
	c.At(time.Second, func() { fired++ })
	if c.Run() != 2 || fired != 2 || p.Retained() != 7 {
		t.Fatalf("reset clock fired %d/2 events, pool holds %d nodes, want 7", fired, p.Retained())
	}
}

func TestClockAfterAndNesting(t *testing.T) {
	c := NewClock(1)
	var hit []time.Duration
	c.After(time.Second, func() {
		hit = append(hit, c.Now())
		c.After(2*time.Second, func() { hit = append(hit, c.Now()) })
	})
	c.Run()
	if len(hit) != 2 || hit[0] != time.Second || hit[1] != 3*time.Second {
		t.Fatalf("nested scheduling produced %v", hit)
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	c := NewClock(1)
	ran := false
	c.At(5*time.Second, func() { ran = true })
	c.RunUntil(2 * time.Second)
	if ran {
		t.Fatal("event at 5s ran during RunUntil(2s)")
	}
	if c.Now() != 2*time.Second {
		t.Fatalf("clock at %v, want 2s", c.Now())
	}
	c.RunUntil(10 * time.Second)
	if !ran {
		t.Fatal("event at 5s did not run by 10s")
	}
	if c.Pending() != 0 {
		t.Fatalf("pending %d, want 0", c.Pending())
	}
}

func TestRunForRelative(t *testing.T) {
	c := NewClock(1)
	c.RunFor(time.Minute)
	c.RunFor(time.Minute)
	if c.Now() != 2*time.Minute {
		t.Fatalf("clock at %v, want 2m", c.Now())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	c := NewClock(1)
	c.At(time.Second, func() {})
	c.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	c.At(time.Millisecond, func() {})
}

func TestEventLimit(t *testing.T) {
	c := NewClock(1)
	c.SetEventLimit(100)
	var bomb func()
	n := 0
	bomb = func() { n++; c.After(time.Millisecond, bomb) }
	c.After(0, bomb)
	c.Run()
	if n != 100 {
		t.Fatalf("event limit let %d events run, want 100", n)
	}
}

func TestRunUntilRespectsEventLimit(t *testing.T) {
	c := NewClock(1)
	c.SetEventLimit(3)
	for i := 1; i <= 5; i++ {
		c.At(time.Duration(i)*time.Millisecond, func() {})
	}
	if n := c.RunUntil(10 * time.Millisecond); n != 3 {
		t.Fatalf("RunUntil processed %d events, want 3", n)
	}
	if c.Pending() != 2 {
		t.Fatalf("pending %d, want 2", c.Pending())
	}
	// The clock must NOT have jumped to the deadline: the 4ms and 5ms
	// events are still queued and scheduling relative to a clock past
	// them would strand them in the past.
	if c.Now() != 3*time.Millisecond {
		t.Fatalf("clock at %v, want 3ms", c.Now())
	}
	// Lifting the limit lets the remaining events drain and the clock
	// reach the deadline.
	c.SetEventLimit(0)
	if n := c.RunUntil(10 * time.Millisecond); n != 2 {
		t.Fatalf("drain processed %d events, want 2", n)
	}
	if c.Now() != 10*time.Millisecond || c.Pending() != 0 {
		t.Fatalf("clock at %v with %d pending, want 10ms/0", c.Now(), c.Pending())
	}
}

func TestRunUntilLimitCountsPerCall(t *testing.T) {
	// The limit bounds each Run/RunUntil call separately, so repeated
	// RunFor windows (the scanners' idiom) each get a fresh budget.
	c := NewClock(1)
	c.SetEventLimit(2)
	for i := 1; i <= 4; i++ {
		c.At(time.Duration(i)*time.Millisecond, func() {})
	}
	if n := c.RunUntil(2 * time.Millisecond); n != 2 {
		t.Fatalf("first window ran %d, want 2", n)
	}
	if n := c.RunUntil(4 * time.Millisecond); n != 2 {
		t.Fatalf("second window ran %d, want 2", n)
	}
	if c.Now() != 4*time.Millisecond {
		t.Fatalf("clock at %v, want 4ms", c.Now())
	}
}

func TestDeterministicRandStreams(t *testing.T) {
	a := NewClock(42)
	b := NewClock(42)
	ra, rb := a.NewRand(), b.NewRand()
	for i := 0; i < 100; i++ {
		if ra.Uint64() != rb.Uint64() {
			t.Fatal("same-seed clocks produced different rand streams")
		}
	}
	// A second derived stream must differ from the first.
	ra2 := a.NewRand()
	same := 0
	for i := 0; i < 32; i++ {
		if ra2.Uint64() == rb.Uint64() {
			same++
		}
	}
	if same == 32 {
		t.Fatal("derived streams are identical")
	}
}

// TestEventPoolTrim pins the retention bound: a pool warmed by a big
// burst can be trimmed back between jobs, its freelists' backing
// arrays included, and a trimmed pool still serves the next simulation
// correctly.
func TestEventPoolTrim(t *testing.T) {
	p := &EventPool{}
	for i := 0; i < 100; i++ {
		p.free = append(p.free, &event{})
	}
	p.putBucket(&bucket{})
	p.putBucket(&bucket{})
	if got := p.Retained(); got != 102 {
		t.Fatalf("Retained %d, want 102", got)
	}
	p.Trim(101)
	if got := p.Retained(); got != 101 {
		t.Fatalf("post-Trim(101) Retained %d, want 101 (100 events + 1 bucket)", got)
	}
	p.Trim(1)
	if got, slots := p.Retained(), cap(p.free)+cap(p.freeBuckets); got != 1 || slots != 1 {
		t.Fatalf("post-Trim(1) Retained %d in %d freelist slots, want 1 in 1", got, slots)
	}
	p.Trim(0)
	if p.Retained() != 0 {
		t.Fatalf("Trim(0) retained %d nodes", p.Retained())
	}
	// A trimmed (empty) pool still runs a clock normally.
	c := NewClock(1)
	c.SetEventPool(p)
	fired := 0
	for i := 0; i < 10; i++ {
		c.After(time.Duration(i)*time.Millisecond, func() { fired++ })
	}
	c.Run()
	if fired != 10 {
		t.Fatalf("fired %d/10 events after Trim", fired)
	}
}
