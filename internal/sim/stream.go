package sim

import "math/rand"

// math/rand's generator (Mitchell and Reeds) is an additive lagged
// Fibonacci register of streamLen words. Seeding fills word i with
// three consecutive values of a Lehmer LCG, x(n+1) = 48271·x(n) mod
// 2^31−1, starting from the normalised seed x(0) and skipping 20
// values first:
//
//	word(i) = x(21+3i)<<40 ^ x(22+3i)<<20 ^ x(23+3i) ^ cooked(i)
//
// where cooked is a fixed table of the package. Draw k (1-based)
// overwrites word(334−k) with word(334−k) + word(607−k) and returns
// it. For k ≤ streamTap neither addend has been overwritten yet, so
// the first streamTap draws are pure functions of the seed, and
// x(n) = 48271^n·x(0) mod 2^31−1 is one multiply from a power table.
const (
	streamLen = 607
	streamTap = 273
	lcgMod    = 1<<31 - 1
	lcgMul    = 48271
	// lcgSkip is how many LCG values seeding discards before word 0.
	lcgSkip = 20
	// zeroSeed replaces a seed ≡ 0 mod lcgMod, as math/rand does.
	zeroSeed = 89482311
)

var (
	// lcgPow[n] = 48271^n mod 2^31−1, for every n seeding reaches.
	lcgPow [lcgSkip + 1 + 3*streamLen]uint64
	// cooked is math/rand's rngCooked table.
	cooked [streamLen]uint64
)

func init() {
	lcgPow[0] = 1
	for n := 1; n < len(lcgPow); n++ {
		lcgPow[n] = lcgPow[n-1] * lcgMul % lcgMod
	}
	// Recover cooked from seed 1's first streamLen outputs o(k): once
	// a draw reads a word an earlier draw wrote, that word is the
	// earlier output, so o(k) = word(334−k mod 607) + o(k−273) for
	// k > 273 — which yields every word outside 61..333 — and the
	// head's o(k) = word(334−k) + word(607−k) yields the rest.
	ref := rand.NewSource(1).(rand.Source64)
	var o [streamLen + 1]uint64
	for k := 1; k <= streamLen; k++ {
		o[k] = ref.Uint64()
	}
	const feed = streamLen - streamTap
	var word [streamLen]uint64
	for k := streamTap + 1; k <= streamLen; k++ {
		word[(streamLen+feed-k)%streamLen] = o[k] - o[k-streamTap]
	}
	for k := 1; k <= streamTap; k++ {
		word[feed-k] = o[k] - word[streamLen-k]
	}
	one := stream{x: 1}
	for i := range cooked {
		cooked[i] = word[i] ^ one.lcgWord(i)
	}
}

// stream is a rand.Source64 producing exactly rand.NewSource(seed)'s
// sequence at a cost proportional to what is drawn. Seeding stores
// the normalised seed; each of the first streamTap draws computes its
// two register words on demand. Draw streamTap+1 seeds a real
// math/rand source, discards the head it already returned, and hands
// every later draw to it — the head is the generator's whole window
// without feedback. The fallback is kept across reseeds, so a
// reused stream allocates it at most once.
type stream struct {
	x     uint64 // x(0): the normalised seed
	drawn int    // draws taken, saturating at streamTap+1
	fb    rand.Source64
}

// Seed restarts the stream as rand.NewSource(seed) would.
func (s *stream) Seed(seed int64) {
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = zeroSeed
	}
	s.x = uint64(seed)
	s.drawn = 0
}

// lcgWord returns register word i as seeding builds it, before the
// XOR with cooked(i).
func (s *stream) lcgWord(i int) uint64 {
	p := lcgPow[lcgSkip+1+3*i:]
	return s.x*p[0]%lcgMod<<40 ^ s.x*p[1]%lcgMod<<20 ^ s.x*p[2]%lcgMod
}

// Uint64 returns the next value of the sequence.
func (s *stream) Uint64() uint64 {
	if s.drawn < streamTap {
		s.drawn++
		i, j := streamLen-streamTap-s.drawn, streamLen-s.drawn
		return (s.lcgWord(i) ^ cooked[i]) + (s.lcgWord(j) ^ cooked[j])
	}
	if s.drawn == streamTap {
		s.drawn++
		if s.fb == nil {
			s.fb = rand.NewSource(int64(s.x)).(rand.Source64)
		} else {
			s.fb.Seed(int64(s.x))
		}
		for range streamTap {
			s.fb.Uint64()
		}
	}
	return s.fb.Uint64()
}

// Int63 returns the next value with its top bit cleared, as
// math/rand's source does.
func (s *stream) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }
