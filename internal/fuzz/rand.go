package fuzz

import "math/rand"

// NewRand returns rand.New over a source that produces exactly the stream
// of rand.NewSource(seed), but seeds in about a quarter of the time.
// math/rand seeds its additive lagged Fibonacci generator (607 words, tap
// 273) by running 1,841 dependent Lehmer steps x' = 48271·x mod (2³¹−1);
// every fuzz test pays that serial chain. Here step k is computed directly
// as seed·48271^k from a table of powers, so the steps are independent
// multiplications.
func NewRand(seed int64) *rand.Rand {
	src := new(seededSource)
	src.Seed(seed)
	return rand.New(src)
}

const (
	rngLen   = 607
	rngTap   = 273
	int32max = 1<<31 - 1
	// lehmerSkip is the number of Lehmer steps math/rand discards before
	// the first word of the register.
	lehmerSkip = 20
)

var (
	// lehmerPow[i][j] is 48271^(lehmerSkip+1+3i+j) mod (2³¹−1): the
	// multipliers of the three Lehmer values folded into register word i.
	lehmerPow [rngLen][3]uint64
	// rngCooked is the constant math/rand XORs into each register word.
	rngCooked [rngLen]int64
)

func init() {
	p := uint64(1)
	for k := 1; k <= lehmerSkip+3*rngLen; k++ {
		p = mulMod(p, 48271)
		if k > lehmerSkip {
			i := k - lehmerSkip - 1
			lehmerPow[i/3][i%3] = p
		}
	}
	// Recover rngCooked from math/rand itself. Its first rngLen outputs
	// each feed a distinct register slot: draw j (1-based) writes
	// out_j = v[feed] + v[tap] into slot feed = (rngLen-rngTap-j) mod rngLen,
	// where v[tap] is out_(j-rngTap) for j > rngTap and otherwise an
	// unfed initial slot. Walking the draws backwards, every tap value is
	// already known, so each initial slot is out_j minus its tap value.
	const seed = 1
	ref := rand.NewSource(seed).(rand.Source64)
	var out [rngLen + 1]int64
	for j := 1; j <= rngLen; j++ {
		out[j] = int64(ref.Uint64())
	}
	var vec [rngLen]int64
	for j := rngLen; j >= 1; j-- {
		feed := (2*rngLen - rngTap - j) % rngLen
		tap := vec[rngLen-j]
		if j > rngTap {
			tap = out[j-rngTap]
		}
		vec[feed] = out[j] - tap
	}
	// While rngCooked is still zero, Seed leaves the bare Lehmer words.
	var bare seededSource
	bare.Seed(seed)
	for i := range vec {
		rngCooked[i] = vec[i] ^ bare.vec[i]
	}
}

// mulMod is a·b mod (2³¹−1) for a, b < 2³¹, reducing with the Mersenne
// identity 2³¹ ≡ 1.
func mulMod(a, b uint64) uint64 {
	x := a * b
	x = x&int32max + x>>31
	if x >= int32max {
		x -= int32max
	}
	return x
}

// seededSource is math/rand's rngSource with a direct-power Seed.
type seededSource struct {
	tap  int
	feed int
	vec  [rngLen]int64
}

// Seed normalizes seed exactly as math/rand does.
func (r *seededSource) Seed(seed int64) {
	r.tap = 0
	r.feed = rngLen - rngTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s := uint64(seed)
	for i, p := range &lehmerPow {
		r.vec[i] = int64(mulMod(s, p[0]))<<40 ^ int64(mulMod(s, p[1]))<<20 ^ int64(mulMod(s, p[2])) ^ rngCooked[i]
	}
}

func (r *seededSource) Int63() int64 { return int64(r.Uint64() &^ (1 << 63)) }

func (r *seededSource) Uint64() uint64 {
	r.tap--
	if r.tap < 0 {
		r.tap += rngLen
	}
	r.feed--
	if r.feed < 0 {
		r.feed += rngLen
	}
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return uint64(x)
}
