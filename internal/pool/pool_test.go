package pool

import "testing"

func TestGetCapacityAtLeastN(t *testing.T) {
	var p Wire
	for _, n := range []int{0, 1, 63, 64, 65, 512, 513, 1500, 1 << 21, 1<<21 + 1} {
		b := p.Get(n)
		if len(b) != 0 {
			t.Fatalf("Get(%d): len %d, want 0", n, len(b))
		}
		if cap(b) < n {
			t.Fatalf("Get(%d): cap %d < request", n, cap(b))
		}
	}
}

func TestPutThenGetRecycles(t *testing.T) {
	var p Wire
	b := p.Get(600)
	b = append(b, make([]byte, 600)...)
	p.Put(b)
	got := p.Get(513) // same 1024-byte class
	if cap(got) < 513 {
		t.Fatalf("recycled cap %d < request", cap(got))
	}
	if &got[:1][0] != &b[:1][0] {
		t.Fatal("Get did not return the recycled buffer")
	}
	if p.Gets != 2 || p.Misses != 1 {
		t.Fatalf("Gets=%d Misses=%d, want 2/1", p.Gets, p.Misses)
	}
}

func TestClassRoundTrip(t *testing.T) {
	// Every buffer Get hands out must, when Put back, land in a class
	// that satisfies the same request size again.
	for n := 1; n <= 1<<12; n = n*2 + 1 {
		get := classFor(n)
		back := classOf(1 << (minClass + get))
		if back != get {
			t.Fatalf("n=%d: classFor=%d but classOf(its cap)=%d", n, get, back)
		}
	}
}

func TestPutDropsOutOfRange(t *testing.T) {
	var p Wire
	p.Put(make([]byte, 0, 8))     // below minClass → dropped
	p.Put(make([]byte, 0, 1<<22)) // above table → dropped
	p.Put(nil)                    // cap 0 → dropped
	for c := range p.classes {
		if len(p.classes[c]) != 0 {
			t.Fatalf("class %d kept an out-of-range buffer", c)
		}
	}
}

func TestOddCapacityPut(t *testing.T) {
	// A buffer with non-power-of-two capacity files under the floor
	// class, so a later Get from that class still sees cap >= request.
	var p Wire
	p.Put(make([]byte, 0, 1500)) // floor class: 1024
	got := p.Get(1000)
	if cap(got) < 1000 {
		t.Fatalf("cap %d < 1000", cap(got))
	}
	if p.Misses != 0 {
		t.Fatal("expected a recycled hit")
	}
}

func TestTrimBoundsRetainedCapacity(t *testing.T) {
	var p Wire
	for _, n := range []int{64, 64, 512, 4096, 1 << 16} {
		p.Put(make([]byte, 0, n))
	}
	if got := p.Retained(); got != 64+64+512+4096+1<<16 {
		t.Fatalf("Retained = %d", got)
	}
	p.Trim(1024)
	if got := p.Retained(); got > 1024 {
		t.Fatalf("Retained after Trim(1024) = %d", got)
	}
	// Largest first: the two 64-byte buffers and the 512 should survive.
	if got := p.Retained(); got != 64+64+512 {
		t.Fatalf("Retained after Trim = %d, want 640", got)
	}
	// A trimmed class keeps no freelist slots beyond its buffers.
	for c := range p.classes {
		if l := p.classes[c]; len(l) == 0 && cap(l) != 0 {
			t.Fatalf("class %d keeps %d empty freelist slots", c, cap(l))
		}
	}
	// Trimmed pool still serves correctly sized buffers.
	if b := p.Get(100); cap(b) < 100 {
		t.Fatalf("Get(100) cap = %d", cap(b))
	}
	p.Trim(0)
	if got := p.Retained(); got != 0 {
		t.Fatalf("Retained after Trim(0) = %d", got)
	}
}
