//go:build !poolcheck

package pool

// checkPut and checkGet are the release checks of a -tags poolcheck
// build (see check.go); in the default build they compile to nothing.
func (p *Wire) checkPut(b []byte, c int) {}

func checkGet(b []byte) {}
