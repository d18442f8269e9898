// Package gradual implements the data-mining half of the hybrid approach:
// a GRITE-style level-wise gradual itemset miner adapted exactly as the
// paper describes (Section III.C). Signals are binarised on their
// outliers, items are (event, delay) pairs, the first tree level is seeded
// with the 2-pair correlations from the signal cross-correlation function,
// siblings are joined level by level, only the ">=" direction is searched,
// and the Mann-Whitney test decides which correlations are statistically
// significant.
package gradual

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"github.com/elsa-hpc/elsa/internal/sig"
	"github.com/elsa-hpc/elsa/internal/stats"
)

// Item is the paper's gradual item (S_i, theta_i): an event type plus its
// delay, in samples, relative to the itemset's first event.
type Item struct {
	Event int
	Delay int
}

// Itemset is a gradual itemset of cardinality >= 2, ordered by delay (the
// first item always has delay 0).
type Itemset struct {
	Items      []Item
	Support    int     // occurrences of the full pattern
	Confidence float64 // Support / occurrences of the first event
	PValue     float64 // Mann-Whitney significance of the pattern
}

// Size returns the number of items.
func (s *Itemset) Size() int { return len(s.Items) }

// Span returns the delay, in samples, between the first and last item —
// the pattern's total lead window.
func (s *Itemset) Span() int {
	if len(s.Items) == 0 {
		return 0
	}
	return s.Items[len(s.Items)-1].Delay
}

// First returns the triggering event id.
func (s *Itemset) First() int { return s.Items[0].Event }

// Last returns the terminal item (the predicted event).
func (s *Itemset) Last() Item { return s.Items[len(s.Items)-1] }

// Key returns a canonical string identity for deduplication.
func (s *Itemset) Key() string {
	var b strings.Builder
	for i, it := range s.Items {
		if i > 0 {
			b.WriteByte('|')
		}
		fmt.Fprintf(&b, "%d@%d", it.Event, it.Delay)
	}
	return b.String()
}

// Config tunes the miner.
type Config struct {
	MinSupport     int     // minimum pattern occurrences
	MinConfidence  float64 // minimum Support / first-event occurrences
	MaxLevel       int     // largest itemset size grown
	DelayTolerance int     // slack, in samples, when matching a delay
	Alpha          float64 // Mann-Whitney significance level
	Horizon        int     // total samples in the analysed window
	MaxCandidates  int     // per-level candidate cap (0 = unlimited)
}

// DefaultConfig returns the mining parameters used by the experiments.
func DefaultConfig(horizon int) Config {
	return Config{
		MinSupport:     3,
		MinConfidence:  0.25,
		MaxLevel:       12,
		DelayTolerance: 1,
		// Dozens to hundreds of candidates are tested per run; the level
		// accounts for that multiplicity so ~1%-grade coincidences do not
		// regularly survive as chains.
		Alpha:         0.002,
		Horizon:       horizon,
		MaxCandidates: 20000,
	}
}

// Mine grows itemsets level by level from the cross-correlation seed pairs
// and returns the maximal frequent significant itemsets, sorted by
// decreasing support then key. trains maps event id to its sorted outlier
// sample indices.
func Mine(trains sig.SpikeTrains, seeds []sig.PairCorrelation, cfg Config) []Itemset {
	level := seedLevel(trains, seeds, cfg)
	kept := append([]Itemset(nil), level...)
	for depth := 2; depth < cfg.MaxLevel && len(level) > 1; depth++ {
		cands := join(level, cfg)
		if len(cands) == 0 {
			break
		}
		next := Evaluate(trains, cands, cfg)
		if len(next) == 0 {
			break
		}
		kept = append(kept, next...)
		level = next
	}
	return refineAll(trains, maximal(kept, cfg.DelayTolerance), cfg)
}

// evalScratch holds the per-worker reusable buffers for candidate scoring
// and delay refinement: the hit/background indicator vectors of the
// Mann-Whitney test and the offset scan's working slice. Scoring thousands
// of candidates recycles three allocations instead of making three per
// candidate. Not safe for concurrent use; each worker owns one. The zero
// value is ready to use.
type evalScratch struct {
	hits    []float64
	bg      []float64
	offsets []int
}

// refineAll re-estimates every itemset's delays as the median observed
// offset and re-scores it. The cross-correlation seeding is density-based
// and biased low on skewed delay distributions; anchoring each item at the
// empirical median recentres both the online match window and the forecast
// failure time. Itemsets are independent, so they refine on parallel
// workers; results land in per-input slots and are merged in input order,
// keeping the output bit-identical to a sequential pass.
func refineAll(trains sig.SpikeTrains, sets []Itemset, cfg Config) []Itemset {
	refined := make([]Itemset, len(sets))
	keep := make([]bool, len(sets))
	bits := sig.IndexTrains(trains)
	parallelEach(len(sets), func(i int, sc *evalScratch) {
		s := sets[i]
		items := refineDelays(trains, s.Items, cfg.DelayTolerance, sc)
		if r, ok := score(trains, bits, items, cfg, sc); ok {
			refined[i], keep[i] = r, true
		} else if r, ok := score(trains, bits, s.Items, cfg, sc); ok {
			// Refinement degraded the pattern (rare); keep the original.
			refined[i], keep[i] = r, true
		}
	})
	out := make([]Itemset, 0, len(sets))
	for i, ok := range keep {
		if ok {
			out = append(out, refined[i])
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Support != out[j].Support {
			return out[i].Support > out[j].Support
		}
		return out[i].Key() < out[j].Key()
	})
	return out
}

// parallelEach runs fn(i) for i in [0, n) on NumCPU workers, each owning
// one evalScratch for the duration.
func parallelEach(n int, fn func(i int, sc *evalScratch)) {
	if n == 0 {
		return
	}
	workers := runtime.NumCPU()
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	next := make(chan int, n)
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc evalScratch
			for i := range next {
				fn(i, &sc)
			}
		}()
	}
	wg.Wait()
}

// refineDelays returns a copy of items with each delay replaced by the
// median offset observed from the first event's occurrences. The offset
// scan reuses the scratch's working slice across items.
func refineDelays(trains sig.SpikeTrains, items []Item, tol int, sc *evalScratch) []Item {
	first := trains[items[0].Event]
	refined := append([]Item(nil), items...)
	for k := 1; k < len(refined); k++ {
		it := refined[k]
		train := trains[it.Event]
		w := sig.DelayTolerance(it.Delay, tol)
		offsets := scanOffsets(sc.offsets[:0], train, first, it.Delay, w)
		if len(offsets) > 0 {
			sort.Ints(offsets)
			refined[k].Delay = offsets[len(offsets)/2]
		}
		sc.offsets = offsets[:0]
	}
	sort.Slice(refined, func(i, j int) bool {
		if refined[i].Delay != refined[j].Delay {
			return refined[i].Delay < refined[j].Delay
		}
		return refined[i].Event < refined[j].Event
	})
	if base := refined[0].Delay; base != 0 {
		for i := range refined {
			refined[i].Delay -= base
		}
	}
	return refined
}

// seedLevel converts cross-correlation pairs into evaluated 2-itemsets.
// This is the hybrid step: instead of GRITE's full first level over all
// attributes, only the pairs the fast signal-analysis pass found are
// explored, which is what makes the mining tractable online.
func seedLevel(trains sig.SpikeTrains, seeds []sig.PairCorrelation, cfg Config) []Itemset {
	cands := make([][]Item, 0, len(seeds))
	for _, p := range seeds {
		cands = append(cands, []Item{{Event: p.A, Delay: 0}, {Event: p.B, Delay: p.Delay}})
	}
	return Evaluate(trains, cands, cfg)
}

// join builds level-(L+1) candidates by merging sibling itemsets that
// share their first L-1 items, mirroring GRITE's tree join. Sibling
// groups are independent, so they join on parallel workers (the multicore
// gradual mining of the paper's reference [3]); results are concatenated
// in deterministic group order before global deduplication.
func join(level []Itemset, cfg Config) [][]Item {
	groups := make(map[string][]Itemset)
	for _, s := range level {
		prefix := s.Items[:len(s.Items)-1]
		var b strings.Builder
		for _, it := range prefix {
			fmt.Fprintf(&b, "%d@%d|", it.Event, it.Delay)
		}
		groups[b.String()] = append(groups[b.String()], s)
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	perGroup := make([][][]Item, len(keys))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.NumCPU())
	for gi, k := range keys {
		wg.Add(1)
		go func(gi int, g []Itemset) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			var local [][]Item
			for i := 0; i < len(g); i++ {
				for j := i + 1; j < len(g); j++ {
					if cand, ok := merge(g[i], g[j]); ok {
						local = append(local, cand)
					}
				}
			}
			perGroup[gi] = local
		}(gi, groups[k])
	}
	wg.Wait()

	seen := make(map[string]bool)
	var out [][]Item
	for _, local := range perGroup {
		for _, cand := range local {
			key := itemsKey(cand)
			if seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, cand)
			if cfg.MaxCandidates > 0 && len(out) >= cfg.MaxCandidates {
				return out
			}
		}
	}
	return out
}

// merge combines two siblings into a candidate one longer, ordered by
// delay then event id. Itemsets whose last items name the same event never
// merge.
func merge(a, b Itemset) ([]Item, bool) {
	la, lb := a.Last(), b.Last()
	if la.Event == lb.Event {
		return nil, false
	}
	items := append([]Item(nil), a.Items...)
	items = append(items, lb)
	sort.Slice(items, func(i, j int) bool {
		if items[i].Delay != items[j].Delay {
			return items[i].Delay < items[j].Delay
		}
		return items[i].Event < items[j].Event
	})
	// Re-anchor so the first delay is 0 (ordering can change the head).
	base := items[0].Delay
	if base != 0 {
		for i := range items {
			items[i].Delay -= base
		}
	}
	return items, true
}

func itemsKey(items []Item) string {
	var b strings.Builder
	for _, it := range items {
		fmt.Fprintf(&b, "%d@%d|", it.Event, it.Delay)
	}
	return b.String()
}

// Evaluate counts support for each candidate pattern in parallel and keeps
// the frequent, confident, significant ones. Besides being the miner's
// inner step it is exported for the signal-only baseline, which scores its
// cross-correlation pairs as standalone 2-item chains.
func Evaluate(trains sig.SpikeTrains, cands [][]Item, cfg Config) []Itemset {
	if len(cands) == 0 {
		return nil
	}
	out := make([]Itemset, len(cands))
	keep := make([]bool, len(cands))
	bits := sig.IndexTrains(trains)
	parallelEach(len(cands), func(i int, sc *evalScratch) {
		if s, ok := score(trains, bits, cands[i], cfg, sc); ok {
			out[i] = s
			keep[i] = true
		}
	})
	var kept []Itemset
	for i, ok := range keep {
		if ok {
			kept = append(kept, out[i])
		}
	}
	return kept
}

// Rescore re-evaluates previously mined itemsets against fresh trains:
// the incremental refresh path re-scores the live chain set without
// re-walking the candidate tree, keeping an itemset exactly when the new
// trains still support it. Output follows refineAll's deterministic
// (support desc, key) order.
func Rescore(trains sig.SpikeTrains, sets []Itemset, cfg Config) []Itemset {
	cands := make([][]Item, len(sets))
	for i := range sets {
		cands[i] = sets[i].Items
	}
	out := Evaluate(trains, cands, cfg)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Support != out[j].Support {
			return out[i].Support > out[j].Support
		}
		return out[i].Key() < out[j].Key()
	})
	return out
}

// score evaluates one candidate: support, confidence and Mann-Whitney
// significance against background probes. The hit and background
// indicator vectors come from the worker's scratch; MannWhitney copies
// what it needs, so reuse across candidates is safe.
func score(trains sig.SpikeTrains, bits sig.BitTrains, items []Item, cfg Config, sc *evalScratch) (Itemset, bool) {
	first := trains[items[0].Event]
	if len(first) == 0 {
		return Itemset{}, false
	}
	support := 0
	hits := sc.hits[:0]
	for _, t := range first {
		if matchesAt(trains, bits, items, t, cfg.DelayTolerance) {
			support++
			hits = append(hits, 1)
		} else {
			hits = append(hits, 0)
		}
	}
	sc.hits = hits[:0]
	if support < cfg.MinSupport {
		return Itemset{}, false
	}
	conf := float64(support) / float64(len(first))
	if conf < cfg.MinConfidence {
		return Itemset{}, false
	}
	p, bg := significance(trains, bits, items, hits, cfg, sc)
	if p >= cfg.Alpha {
		return Itemset{}, false
	}
	// Wide long-lag windows can hit busy follower trains by chance; a
	// real correlation must fire at least twice the background rate.
	if bg > 0 && conf < 2*bg {
		return Itemset{}, false
	}
	return Itemset{
		Items:      append([]Item(nil), items...),
		Support:    support,
		Confidence: conf,
		PValue:     p,
	}, true
}

// scanOffsets collects, for each occurrence t of the first event, the
// offset of the nearest occurrence of the follower train to t + delay
// within +/-w, appending into dst (the caller's reusable scratch). This is
// the inner loop of refineAll's delay refinement: it runs once per item of
// every surviving itemset, over every trigger occurrence.
//
//elsa:hotpath
func scanOffsets(dst []int, train, first []int, delay, w int) []int {
	for _, t := range first {
		want := t + delay
		i := sort.SearchInts(train, want-w)
		best, bestDist, found := 0, w+1, false
		for ; i < len(train) && train[i] <= want+w; i++ {
			if d := abs(train[i] - want); d < bestDist {
				best, bestDist, found = train[i]-t, d, true
			}
		}
		if found {
			dst = append(dst, best) //nolint:elsaalloc // amortized: dst is the worker's reusable offsets scratch
		}
	}
	return dst
}

// matchesAt reports whether every non-first item of the pattern has an
// occurrence at t + delay, within the delay-proportional tolerance. The
// bit-packed occupancy index answers each window probe in O(1) word
// operations; events too sparse to index fall back to binary search.
//
//elsa:hotpath
func matchesAt(trains sig.SpikeTrains, bits sig.BitTrains, items []Item, t, tol int) bool {
	for _, it := range items[1:] {
		want := t + it.Delay
		w := sig.DelayTolerance(it.Delay, tol)
		if bt, ok := bits[it.Event]; ok {
			if !bt.AnyIn(want-w, want+w) {
				return false
			}
			continue
		}
		train := trains[it.Event]
		i := sort.SearchInts(train, want-w)
		if i >= len(train) || train[i] > want+w {
			return false
		}
	}
	return true
}

// significance runs the Mann-Whitney test comparing the pattern indicator
// at trigger times (hits) against the indicator at evenly spaced
// background probe times, returning the p-value and the background match
// rate. A low p-value means followers co-occur with the trigger far more
// often than with arbitrary instants.
func significance(trains sig.SpikeTrains, bits sig.BitTrains, items []Item, hits []float64, cfg Config, sc *evalScratch) (p, background float64) {
	if cfg.Horizon <= 0 {
		return 0, 0 // no background to compare against; accept
	}
	probes := 4 * len(hits)
	if probes < 40 {
		probes = 40
	}
	if probes > 400 {
		probes = 400
	}
	stride := cfg.Horizon / probes
	if stride < 1 {
		stride = 1
	}
	bg := sc.bg[:0]
	bgHits := 0.0
	for t := stride / 2; t < cfg.Horizon; t += stride {
		if matchesAt(trains, bits, items, t, cfg.DelayTolerance) {
			bg = append(bg, 1)
			bgHits++
		} else {
			bg = append(bg, 0)
		}
	}
	sc.bg = bg[:0]
	rate := 0.0
	if len(bg) > 0 {
		rate = bgHits / float64(len(bg))
	}
	return stats.MannWhitney(hits, bg).P, rate
}

// maximal removes itemsets that are sub-patterns of another kept itemset
// (same events at compatible relative delays), so the chain-length
// statistics reflect the full sequences the system extracts.
func maximal(in []Itemset, tol int) []Itemset {
	// Work on a copy: callers keep their slice order.
	sets := append([]Itemset(nil), in...)
	sort.Slice(sets, func(i, j int) bool {
		if sets[i].Size() != sets[j].Size() {
			return sets[i].Size() > sets[j].Size()
		}
		if sets[i].Support != sets[j].Support {
			return sets[i].Support > sets[j].Support
		}
		return sets[i].Key() < sets[j].Key()
	})
	var kept []Itemset
	for _, s := range sets {
		sub := false
		for i := range kept {
			// A superset only absorbs a sub-pattern when it explains a
			// comparable share of the occurrences: a rare coincidental
			// extension must not erase a frequent, confident chain.
			if kept[i].Support*10 >= s.Support*7 && subPattern(&s, &kept[i], tol) {
				sub = true
				break
			}
		}
		if !sub {
			kept = append(kept, s)
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		if kept[i].Support != kept[j].Support {
			return kept[i].Support > kept[j].Support
		}
		return kept[i].Key() < kept[j].Key()
	})
	return kept
}

// subPattern reports whether every item of sub appears in super at a
// consistent relative delay (within tolerance).
func subPattern(sub, super *Itemset, tol int) bool {
	if sub.Size() > super.Size() {
		return false
	}
	// Try aligning sub's first item to each occurrence of the same event
	// in super.
	for _, anchor := range super.Items {
		if anchor.Event != sub.Items[0].Event {
			continue
		}
		ok := true
		for _, it := range sub.Items {
			found := false
			want := anchor.Delay + it.Delay
			w := sig.DelayTolerance(want, tol)
			for _, su := range super.Items {
				if su.Event == it.Event && abs(su.Delay-want) <= w {
					found = true
					break
				}
			}
			if !found {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
