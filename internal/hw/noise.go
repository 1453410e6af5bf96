package hw

// Deterministic pseudo-noise: every (kernel, frequency, size) triple maps
// to a fixed pair of values in [-1, 1]. Runs are therefore exactly
// reproducible while still exhibiting measurement-like scatter, which
// keeps the machine-learning task honest.

// splitmix64 is the standard SplitMix64 mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func hashString(s string) uint64 {
	// FNV-1a 64-bit.
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

// noisePair returns two deterministic values in [-1, 1] derived from a
// noise seed: the hash of the kernel name, XORed with the mixed launch
// size and the mixed core frequency (see Workload.terms and Spec.clock).
func noisePair(seed uint64) (float64, float64) {
	a := splitmix64(seed)
	b := splitmix64(a)
	return unit(a), unit(b)
}

// unit maps a uint64 to [-1, 1].
func unit(x uint64) float64 {
	return float64(x>>11)/float64(1<<53)*2 - 1
}
