package scenario

// splitmix is the SplitMix64 output function — the sub-seed derivation
// used to give every scenario an independent RNG stream from the spec's
// root seed. It is fixed forever: changing it would silently change
// every generated program and orphan stored results.
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// fnv64 is FNV-1a over s, used to fold scenario names into sub-seeds.
func fnv64(s string) uint64 {
	h := uint64(0xCBF29CE484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001B3
	}
	return h
}
