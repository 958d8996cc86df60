//go:build poolcheck

package pool

import (
	"strings"
	"testing"
)

// mustPanic runs f and fails unless it panics with a message holding
// want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Fatalf("panic %v, want one saying %q", r, want)
		}
	}()
	f()
}

func TestPoolcheckWriteAfterRelease(t *testing.T) {
	var p Wire
	b := append(p.Get(100), "a datagram"...)
	p.Put(b)
	if b[0] != poison {
		t.Fatalf("released buffer reads %#x, want poison %#x", b[0], poison)
	}
	b[3] = 'x' // a write through a slice kept past Put
	mustPanic(t, "byte 3 of a released 128-byte buffer was written after release", func() { p.Get(100) })
}

func TestPoolcheckDoubleRelease(t *testing.T) {
	var p Wire
	b := append(p.Get(100), "a datagram"...)
	p.Put(b)
	mustPanic(t, "a 128-byte buffer was released twice", func() { p.Put(b) })
}

// TestPoolcheckCleanCycle: a buffer used within the contract comes back
// from the pool without a panic, and so does an unwritten one released
// once.
func TestPoolcheckCleanCycle(t *testing.T) {
	var p Wire
	b := append(p.Get(100), "a datagram"...)
	p.Put(b)
	b = p.Get(100)
	p.Put(b) // wholly poison, but not held: released once
	if got := p.Get(100); &got[:1][0] != &b[:1][0] {
		t.Fatal("Get did not return the recycled buffer")
	}
}
