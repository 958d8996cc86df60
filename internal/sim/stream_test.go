package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// draws are the rand.Rand methods the simulator's streams serve, each
// reduced to one comparable value. They consume different numbers of
// source values (Intn and Float64 may reject, Shuffle takes one per
// swap), so cycling through them moves the streamTap boundary across
// every method.
var draws = []struct {
	name string
	draw func(r *rand.Rand, i int) uint64
}{
	{"Uint64", func(r *rand.Rand, _ int) uint64 { return r.Uint64() }},
	{"Int63", func(r *rand.Rand, _ int) uint64 { return uint64(r.Int63()) }},
	{"Uint32", func(r *rand.Rand, _ int) uint64 { return uint64(r.Uint32()) }},
	{"Intn", func(r *rand.Rand, i int) uint64 {
		// Powers of two, small spans, spans past 2^31 (Int63n).
		n := []int{1 << (i % 40), 1 + i*7919%65536, 3 << 33}[i%3]
		return uint64(r.Intn(n))
	}},
	{"Float64", func(r *rand.Rand, _ int) uint64 { return math.Float64bits(r.Float64()) }},
	{"Shuffle", func(r *rand.Rand, i int) uint64 {
		var a [16]uint64
		for k := range a {
			a[k] = uint64(k)
		}
		n := 2 + i%(len(a)-1)
		r.Shuffle(n, func(x, y int) { a[x], a[y] = a[y], a[x] })
		var h uint64
		for _, v := range a[:n] {
			h = h*31 + v
		}
		return h
	}},
}

// compareDraws draws n values from got and want, cycling through
// draws, and reports the first mismatch.
func compareDraws(t *testing.T, label string, seed int64, got, want *rand.Rand, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		d := draws[i%len(draws)]
		if g, w := d.draw(got, i), d.draw(want, i); g != w {
			t.Fatalf("%s stream, seed %d, draw %d (%s): got %#x, want %#x", label, seed, i, d.name, g, w)
		}
	}
}

// differentialSeeds are the seeds the stream is checked at: the
// normalisation edge cases, multiples of the LCG modulus and their
// neighbours, and pseudo-random int64s.
func differentialSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, 2, 1<<31 - 2, 1<<31 - 1, 1 << 31, -(1<<31 - 1), -(1 << 31),
		math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
		zeroSeed, -zeroSeed, zeroSeed + lcgMod,
	}
	for k := int64(2); k <= 5; k++ {
		seeds = append(seeds, k*lcgMod-1, k*lcgMod, k*lcgMod+1, -k*lcgMod)
	}
	gen := rand.New(rand.NewSource(20210823))
	for len(seeds) < 2048 {
		seeds = append(seeds, int64(gen.Uint64()))
	}
	return seeds
}

// TestStreamMatchesMathRand is the differential check behind every
// stream in the simulator: for each seed, a fresh stream and one
// stream value reseeded across all seeds must both reproduce
// rand.New(rand.NewSource(seed)) draw for draw, well past the
// streamTap-draw head into the fallback. The reused stream also
// stops at varying points inside and beyond the head before its next
// reseed, so a reseed from either state is covered.
func TestStreamMatchesMathRand(t *testing.T) {
	reused := rand.New(&stream{})
	for n, seed := range differentialSeeds() {
		long := 1000 + n%400
		fresh := &stream{}
		fresh.Seed(seed)
		compareDraws(t, "fresh", seed, rand.New(fresh), rand.New(rand.NewSource(seed)), long)
		reused.Seed(seed)
		compareDraws(t, "reused", seed, reused, rand.New(rand.NewSource(seed)), long)
		reused.Seed(seed)
		compareDraws(t, "reused-prefix", seed, reused, rand.New(rand.NewSource(seed)), n%(2*streamTap))
	}
}

// TestClockStreamsMatchMathRand pins NewRand's derivation against
// math/rand itself: the clock's stream is rand.NewSource(seed), and
// stream id's seed is that stream's id-th Int63 XOR id — past the
// clock stream's own head, and again after a Reset.
func TestClockStreamsMatchMathRand(t *testing.T) {
	c := NewClock(7)
	check := func(seed int64) {
		ref := rand.New(rand.NewSource(seed))
		for id := int64(1); id <= streamTap+40; id++ {
			want := rand.New(rand.NewSource(ref.Int63() ^ id))
			compareDraws(t, "clock", seed, c.NewRand(), want, 8)
		}
	}
	check(7)
	c.Reset(-3)
	check(-3)
}

// BenchmarkStreamSeed measures a stream's cost per seed against a
// fresh math/rand source drawing the same values: a host stream draws
// a few values per trial, a population stream about a thousand.
func BenchmarkStreamSeed(b *testing.B) {
	for _, n := range []int{4, 1000} {
		b.Run(fmt.Sprintf("stream/%d", n), func(b *testing.B) {
			r := rand.New(&stream{})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.Seed(int64(i))
				for range n {
					r.Uint64()
				}
			}
		})
		b.Run(fmt.Sprintf("math-rand/%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := rand.New(rand.NewSource(int64(i)))
				for range n {
					r.Uint64()
				}
			}
		})
	}
}
