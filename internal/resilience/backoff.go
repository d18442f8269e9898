package resilience

import (
	"math/rand"
	"sync"
	"time"
)

// Backoff defaults.
const (
	DefaultBaseBackoff = 5 * time.Millisecond
	DefaultMaxBackoff  = 2 * time.Second
	DefaultJitter      = 0.5
)

// Backoff computes capped, jittered exponential retry delays: attempt n
// (0-based) sleeps min(Base<<n, Max), scaled by a uniform jitter factor
// in [1-Jitter/2, 1+Jitter/2]. It is the one backoff schedule shared by
// every retry loop in the system — fleet shard handoffs, producer-side
// socket redials — so "capped jittered exponential" means the same thing
// everywhere and a seed reproduces the same schedule in tests.
//
// The zero value is not usable; construct with NewBackoff. Delay is safe
// for concurrent use.
type Backoff struct {
	base, max time.Duration
	jitter    float64

	mu  sync.Mutex
	rng *rand.Rand
}

// NewBackoff returns a schedule with the given base and cap. Non-positive
// base/max and out-of-range jitter select the defaults
// (DefaultBaseBackoff, DefaultMaxBackoff, DefaultJitter); the same seed
// reproduces the same jitter sequence.
func NewBackoff(base, max time.Duration, jitter float64, seed int64) *Backoff {
	if base <= 0 {
		base = DefaultBaseBackoff
	}
	if max <= 0 {
		max = DefaultMaxBackoff
	}
	if jitter <= 0 {
		jitter = DefaultJitter
	}
	if jitter > 1 {
		jitter = 1
	}
	return &Backoff{
		base:   base,
		max:    max,
		jitter: jitter,
		rng:    rand.New(rand.NewSource(seed)),
	}
}

// Delay returns the jittered delay for a retry attempt (0-based). Each
// call consumes one value from the jitter stream.
func (b *Backoff) Delay(attempt int) time.Duration {
	d := b.base
	for i := 0; i < attempt && d < b.max; i++ {
		d *= 2
	}
	if d > b.max {
		d = b.max
	}
	b.mu.Lock()
	u := b.rng.Float64()
	b.mu.Unlock()
	scale := 1 - b.jitter/2 + b.jitter*u
	return time.Duration(float64(d) * scale)
}
