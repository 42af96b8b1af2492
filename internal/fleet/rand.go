package fleet

import (
	"hash/fnv"

	"coscale/internal/trace"
)

// hashKey folds an operation name, a string key, and a numeric
// discriminator into the 64-bit input of the splitmix64 finalizer. Every
// randomized decision in this package — backoff jitter, client retry
// jitter, chaos injections — draws through it, so a decision is a pure
// function of (seed, op, key, n): identical across runs and unaffected by
// goroutine interleaving, which is what makes chaos runs bit-replayable.
func hashKey(op, key string, n uint64) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(op))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(key))
	var b [8]byte
	for i := range b {
		b[i] = byte(n >> (8 * i))
	}
	_, _ = h.Write(b[:])
	return h.Sum64()
}

// jitterFrac maps a key to a uniform fraction in [0, 1) with 53 bits of
// precision.
func jitterFrac(k uint64) float64 { return float64(trace.Mix64(k)>>11) / (1 << 53) }

// seededFrac is jitterFrac under an explicit seed.
func seededFrac(seed, k uint64) float64 { return jitterFrac(seed ^ k) }
