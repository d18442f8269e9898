package sig

import (
	"math"

	"github.com/elsa-hpc/elsa/internal/fft"
)

// Scratch holds the reusable buffers one cross-correlation worker needs.
// The kernel's histogram and prefix-sum arrays are sized by MaxLag, not by
// the trains, so a worker that scores thousands of pairs can recycle the
// same two allocations for all of them; the bit-packed and FFT kernels
// add span-sized word and complex buffers, grown once and recycled the
// same way. A Scratch is not safe for concurrent use; give each goroutine
// its own. The zero value is ready to use.
type Scratch struct {
	hist   []int
	prefix []int

	bitsA, bitsB []uint64
	fa, fb       []complex128

	lastKernel KernelKind
}

// LastKernel reports which kernel built the histogram of the most recent
// CrossCorrelate call — telemetry for the dispatch heuristic and the
// crossover benchmarks.
func (s *Scratch) LastKernel() KernelKind { return s.lastKernel }

// growBits resizes the zeroed bitset buffers for the bit-packed kernel.
//
//elsa:hotpath
func (s *Scratch) growBits(na, nb int) (wa, wb []uint64) {
	if cap(s.bitsA) < na {
		s.bitsA = make([]uint64, na) //nolint:elsaalloc // amortized: grows to the largest span once, then reused for every pair
	} else {
		s.bitsA = s.bitsA[:na]
	}
	for i := range s.bitsA {
		s.bitsA[i] = 0
	}
	if cap(s.bitsB) < nb {
		s.bitsB = make([]uint64, nb) //nolint:elsaalloc // amortized: grows to the largest span once, then reused for every pair
	} else {
		s.bitsB = s.bitsB[:nb]
	}
	for i := range s.bitsB {
		s.bitsB[i] = 0
	}
	return s.bitsA, s.bitsB
}

// growFFT resizes the zeroed complex buffers for the FFT kernel. The
// returned buffers are power-of-two sized by construction, so the
// transforms have no error path.
//
//elsa:hotpath
func (s *Scratch) growFFT(span int) (fa, fb []complex128) {
	s.fa = fft.GrowPow2(s.fa, span) //nolint:elsaalloc // amortized: fft.GrowPow2 reuses capacity after the first growth to the largest span
	s.fb = fft.GrowPow2(s.fb, span) //nolint:elsaalloc // amortized: fft.GrowPow2 reuses capacity after the first growth to the largest span
	return s.fa, s.fb
}

// grow resizes the scratch buffers for a MaxLag+1-bin histogram. hist is
// returned zeroed; prefix is fully overwritten by the kernel so it is only
// resized.
//
//elsa:hotpath
func (s *Scratch) grow(n int) (hist, prefix []int) {
	if cap(s.hist) < n {
		s.hist = make([]int, n) //nolint:elsaalloc // amortized: grows to MaxLag+1 once, then reused for every pair
	} else {
		s.hist = s.hist[:n]
		for i := range s.hist {
			s.hist[i] = 0
		}
	}
	if cap(s.prefix) < n+1 {
		s.prefix = make([]int, n+1) //nolint:elsaalloc // amortized: grows to MaxLag+2 once, then reused for every pair
	} else {
		s.prefix = s.prefix[:n+1]
	}
	return s.hist, s.prefix
}

// CrossCorrelate finds the best delay in [0, MaxLag] from spike train a to
// spike train b (sorted sample indices), reusing the scratch buffers. It
// returns false when no delay meets the thresholds. This is the
// zero-allocation kernel behind the package-level CrossCorrelate.
//
//elsa:hotpath
func (s *Scratch) CrossCorrelate(a, b []int, cfg CrossCorrConfig) (delay, count int, score float64, ok bool) {
	if len(a) == 0 || len(b) == 0 || cfg.MaxLag < 0 {
		return 0, 0, 0, false
	}
	hist, prefix := s.grow(cfg.MaxLag + 1)
	s.buildHist(a, b, cfg.MaxLag, cfg.Kernel, hist)
	// Prefix sums let each candidate lag be scored over its own
	// delay-proportional window (DelayTolerance), so long cascades with
	// multiplicative jitter still accumulate their co-occurrence mass.
	// Ties on the windowed count break toward the raw histogram peak, so
	// an exact repeated delay is reported exactly.
	prefix[0] = 0
	first, last := -1, -1
	for i, h := range hist {
		prefix[i+1] = prefix[i] + h
		if h != 0 {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	if first < 0 {
		return 0, 0, 0, false
	}
	// The winner is the lag with the highest co-occurrence *density*
	// (count per window width): a raw-count argmax would always favour
	// the widest windows on any regularly firing pair of trains.
	//
	// Only lags whose tolerance window [lag-tol, lag+tol] can reach the
	// populated bin range [first, last] can score non-zero, and with
	// tol = max(base, lag/4) both window edges are monotone in lag, so the
	// scan is clipped to a conservative superset of that range (every
	// skipped lag provably sums to zero and would be skipped by the c == 0
	// test anyway).
	bse := cfg.Tolerance
	if bse < 0 {
		bse = 0
	}
	lagLo := min(first-bse, (4*first)/5-1)
	if lagLo < 0 {
		lagLo = 0
	}
	lagHi := max(last+bse, (4*last)/3+2)
	if lagHi > cfg.MaxLag {
		lagHi = cfg.MaxLag
	}
	best, bestCount, bestRaw := -1, 0, 0
	bestDensity := 0.0
	for lag := lagLo; lag <= lagHi; lag++ {
		tol := DelayTolerance(lag, cfg.Tolerance)
		c := windowSum(prefix, lag-tol, lag+tol, cfg.MaxLag)
		if c == 0 {
			continue
		}
		density := float64(c) / float64(2*tol+1)
		if density > bestDensity || (density == bestDensity && hist[lag] > bestRaw) {
			best, bestCount, bestRaw, bestDensity = lag, c, hist[lag], density
		}
	}
	if best < 0 || bestCount < cfg.MinCount {
		return 0, 0, 0, false
	}
	// Two acceptance views: the symmetric normalised cross-correlation,
	// and the directional confidence (how often A is followed by B). The
	// latter keeps rare-precursor -> common-failure pairs alive, which the
	// symmetric norm would punish. Confidence acceptance demands a real
	// lift over the random co-occurrence rate of the window, since wide
	// long-lag windows hit dense trains by chance.
	norm := math.Sqrt(float64(len(a)) * float64(len(b)))
	sc := float64(bestCount) / norm
	if conf := float64(bestCount) / float64(len(a)); !cfg.SymmetricOnly && conf > sc && liftOK(conf, best, len(b), cfg) {
		sc = conf
	}
	if sc > 1 {
		sc = 1
	}
	if sc < cfg.MinScore {
		return 0, 0, 0, false
	}
	return best, bestCount, sc, true
}

// windowSum sums hist over [lo, hi] clamped to [0, maxLag], via the
// prefix-sum array.
//
//elsa:hotpath
func windowSum(prefix []int, lo, hi, maxLag int) int {
	if lo < 0 {
		lo = 0
	}
	if hi > maxLag {
		hi = maxLag
	}
	if lo > hi {
		return 0
	}
	return prefix[hi+1] - prefix[lo]
}
