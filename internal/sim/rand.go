package sim

import "math"

// Rand is a small, fast, deterministic pseudo-random number generator
// (xoshiro256** over a splitmix64-expanded seed). The toolkit does not use
// math/rand so that the exact sequence is pinned across Go releases: the
// reproducibility experiments (Table 1) depend on two runs with the same
// seed producing bit-identical workloads.
type Rand struct {
	s [4]uint64
}

// NewRand returns a generator seeded from a single 64-bit value.
func NewRand(seed uint64) *Rand {
	r := &Rand{}
	r.Seed(seed)
	return r
}

// Seed resets the generator state from a 64-bit seed via splitmix64.
func (r *Rand) Seed(seed uint64) {
	x := seed
	next := func() uint64 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	// Avoid the (astronomically unlikely) all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniformly distributed int64 in [0, n). It panics if n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a normally distributed float64 with mean 0 and
// standard deviation 1, using the Box–Muller transform.
func (r *Rand) NormFloat64() float64 {
	for {
		u1 := r.Float64()
		u2 := r.Float64()
		if u1 <= 1e-300 {
			continue
		}
		return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	}
}

// ExpFloat64 returns an exponentially distributed float64 with rate 1.
func (r *Rand) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u <= 1e-300 {
			continue
		}
		return -math.Log(u)
	}
}

// LogNormal returns a log-normally distributed value parameterized by the
// mean and standard deviation of the underlying normal.
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// Pareto returns a Pareto-distributed value with scale xm (the minimum,
// returned when the uniform draw is 0) and shape alpha, by inverting the
// Pareto CDF. Heavy-tailed object sizes — web transfer sizes in the
// contention workload — are the intended use; callers that need a bounded
// support clamp the result, which keeps the draw count at exactly one per
// sample (rejection resampling would make the stream length data-dependent).
func (r *Rand) Pareto(xm, alpha float64) float64 {
	return xm / math.Pow(1-r.Float64(), 1/alpha)
}

// Duration returns a uniformly distributed virtual duration in [0, d).
func (r *Rand) Duration(d Time) Time {
	if d <= 0 {
		return 0
	}
	return Time(r.Int63n(int64(d)))
}

// Fork derives an independent generator from this one. Forked streams are
// used to give each simulated component (per-origin jitter, per-load think
// time, ...) its own stream so adding a component does not perturb others.
func (r *Rand) Fork() *Rand {
	return NewRand(r.Uint64())
}
