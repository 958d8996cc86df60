//go:build poolcheck

package pool

import "fmt"

// poison fills every buffer the pool holds when built with -tags
// poolcheck. A byte of a released buffer that differs from it when Get
// hands the buffer out again was written after release, and code that
// reads a buffer after releasing it reads poison, which shows up as
// output drift in the golden tests.
const poison = 0xa5

// checkPut poisons b, which is being released into class c, and panics
// if the class already holds it. The freelist is the record of released
// buffers, and Get forgets a buffer by taking it off the list; only a
// buffer that is wholly poison, as a released one is, is looked up.
func (p *Wire) checkPut(b []byte, c int) {
	b = b[:cap(b)]
	if firstClean(b) < 0 {
		for _, held := range p.classes[c] {
			if &held[:1][0] == &b[0] {
				panic(fmt.Sprintf("pool: a %d-byte buffer was released twice", cap(b)))
			}
		}
	}
	for i := range b {
		b[i] = poison
	}
}

// checkGet panics unless b, a released buffer that Get is handing out
// again, is still wholly poison.
func checkGet(b []byte) {
	b = b[:cap(b)]
	if i := firstClean(b); i >= 0 {
		panic(fmt.Sprintf("pool: byte %d of a released %d-byte buffer was written after release", i, cap(b)))
	}
}

// firstClean returns the index of b's first byte that is not poison,
// or -1.
func firstClean(b []byte) int {
	for i, v := range b {
		if v != poison {
			return i
		}
	}
	return -1
}
