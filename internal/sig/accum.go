package sig

import (
	"fmt"
	"sort"
)

// Accumulator maintains, incrementally as sampling ticks close, the same
// statistics the batch training fast path computes in one pass over the
// horizon: per-event outlier spike trains, ordered-pair co-occurrence
// counters within MaxLag (the prefilter's pruning currency), and
// per-event rate/severity statistics. A monitor that feeds it from the
// pipeline's tick tap can rebuild its correlation chains from the live
// counters (Model.Refresh) without replaying the horizon.
//
// The pair counters mirror the batch prefilter exactly. While the total
// co-occurrence mass stays within Budget the accumulator runs a
// streaming version of exactSweep: a ring holds every spike within
// MaxLag of the newest tick, each arriving spike pairs against the ring
// (same-event pairs skipped, simultaneous spikes counted toward both
// orders), so the counters equal what exactSweep would produce over the
// merged timeline. Past the budget it degrades to the block-bucket
// upper bound of blockSweep: per-block event counts whose adjacent
// products bound the true totals from above, so candidate emission
// stays conservative — a pair that could reach MinCount is never lost.
//
// Ticks must be observed in strictly increasing order (the sampler
// closes them that way); an Accumulator is not safe for concurrent use.
//
//elsa:snapshot
type Accumulator struct {
	//elsa:ephemeral configuration is a constructor argument, not stream state
	cfg AccumConfig

	trains SpikeTrains         // event id -> sorted outlier ticks
	counts map[uint64]int32    // ordered pair -> co-occurrence count (upper bound past the budget)
	dirty  map[uint64]struct{} // pairs whose count changed since the last drain
	events map[int]*EventStat

	ring []accSpike // spikes within MaxLag of the newest tick
	//elsa:ephemeral ring head offset; State emits only the live entries
	head int

	lastTick int
	ticks    int
	mass     int64
	exact    bool

	// Block-bucket state, live once the mass budget is blown: per-event
	// spike counts of the previous closed block and the still-open one,
	// over blocks of width MaxLag+1 anchored at tick 0.
	prevBlock, curBlock int
	prev, cur           map[int]int32

	//elsa:ephemeral trim cursor; a resumed accumulator re-trims lazily
	lastTrim int
}

// accSpike is one ring entry: a spike of event E at tick T.
type accSpike struct {
	T int `json:"t"`
	E int `json:"e"`
}

// EventStat is one event type's running statistics: how many ticks it
// spiked on, how many records it produced, when it was last seen and the
// worst severity observed (as a plain int so the package stays free of
// the logs dependency; callers map it back).
type EventStat struct {
	Spikes      int `json:"spikes"`
	Count       int `json:"count"`
	LastTick    int `json:"last_tick"`
	MaxSeverity int `json:"max_severity,omitempty"`
}

// AccumConfig tunes the accumulator.
type AccumConfig struct {
	// MaxLag is the co-occurrence window in ticks; it must match the
	// CrossCorrConfig the refresh path scores candidates with.
	MaxLag int
	// MinCount is the candidate emission threshold (CrossCorrConfig.MinCount).
	MinCount int
	// Budget caps the exact streaming sweep's co-occurrence mass before
	// the accumulator degrades to block-bucket upper bounds. <= 0 selects
	// the batch prefilter's exactSweepBudget.
	Budget int
	// HorizonCap > 0 trims spike trains to the most recent HorizonCap
	// ticks (amortised): refresh then scores pairs over a sliding recent
	// window while the lifetime counters keep gating candidacy.
	HorizonCap int
}

// DefaultAccumConfig matches the experiments' cross-correlation settings.
func DefaultAccumConfig() AccumConfig {
	cc := DefaultCrossCorrConfig()
	return AccumConfig{MaxLag: cc.MaxLag, MinCount: cc.MinCount}
}

// NewAccumulator returns an empty accumulator in the exact regime.
func NewAccumulator(cfg AccumConfig) *Accumulator {
	if cfg.MaxLag < 0 {
		cfg.MaxLag = 0
	}
	if cfg.MinCount < 1 {
		cfg.MinCount = 1
	}
	if cfg.Budget <= 0 {
		cfg.Budget = exactSweepBudget
	}
	return &Accumulator{
		cfg:    cfg,
		trains: make(SpikeTrains),
		counts: make(map[uint64]int32),
		dirty:  make(map[uint64]struct{}),
		events: make(map[int]*EventStat),
		exact:  true,
	}
}

// counterCap is the saturation ceiling, shared with the batch
// pairCounter's order of magnitude but clamped (min(cap, total)) so the
// final value never depends on bucket iteration order.
const counterCap = 1 << 30

func pairKey(a, b int) uint64 { return uint64(uint32(a))<<32 | uint64(uint32(b)) }

// bump adds n co-occurrences to the ordered pair (a, b), clamped at the
// cap, and marks the pair dirty.
//
//elsa:hotpath
func (ac *Accumulator) bump(a, b int, n int32) {
	k := pairKey(a, b)
	v := ac.counts[k]
	if v >= counterCap {
		return
	}
	if v > counterCap-n {
		v = counterCap
	} else {
		v += n
	}
	ac.counts[k] = v
	ac.dirty[k] = struct{}{}
}

// stat returns the event's stat record, creating it on first sight.
func (ac *Accumulator) stat(id int) *EventStat {
	es := ac.events[id]
	if es == nil {
		es = &EventStat{LastTick: -1}
		ac.events[id] = es
	}
	return es
}

// NoteSeverity records the severity of one record of the event (as an
// int; callers pass their severity enum's value). The per-event maximum
// feeds the refresh path's predictive-chain elimination.
func (ac *Accumulator) NoteSeverity(id, sev int) {
	if es := ac.stat(id); sev > es.MaxSeverity {
		es.MaxSeverity = sev
	}
}

// ObserveTick folds one closed sampling tick into the statistics: counts
// is the tick's per-event record counts (rate statistics), outliers the
// tick's outlier event ids in ascending order (the pipeline's sorted hit
// set). Ticks must arrive in strictly increasing order; a stale tick is
// ignored.
func (ac *Accumulator) ObserveTick(tick int, counts map[int]int, outliers []int) {
	if ac.ticks > 0 && tick <= ac.lastTick {
		return
	}
	ac.ticks++
	ac.lastTick = tick
	for id, n := range counts {
		es := ac.stat(id)
		es.Count += n
		es.LastTick = tick
	}
	if len(outliers) > 0 {
		// Drop ring entries that fell out of the co-occurrence window.
		for ac.head < len(ac.ring) && tick-ac.ring[ac.head].T > ac.cfg.MaxLag {
			ac.head++
		}
		if ac.head > 64 && ac.head*2 > len(ac.ring) {
			n := copy(ac.ring, ac.ring[ac.head:])
			ac.ring = ac.ring[:n]
			ac.head = 0
		}
	}
	for _, e := range outliers {
		tr := ac.trains[e]
		if len(tr) > 0 && tr[len(tr)-1] >= tick {
			continue // duplicate within the tick's hit set
		}
		ac.trains[e] = append(tr, tick)
		ac.stat(e).Spikes++
		if ac.exact {
			ac.exactAdd(tick, e)
		} else {
			ac.bucketAdd(tick, e)
		}
	}
	ac.maybeTrim()
}

// exactAdd pairs one new spike against every live ring entry, mirroring
// exactSweep over the merged timeline: ring entries precede the spike in
// (tick, event) order, same-event pairs are skipped, and a simultaneous
// pair also counts in the reverse order (the kernel's delay-0 bin sees
// it from both sides).
//
//elsa:hotpath
func (ac *Accumulator) exactAdd(tick, e int) {
	for i := ac.head; i < len(ac.ring); i++ {
		r := ac.ring[i]
		if r.E == e {
			continue
		}
		ac.bump(r.E, e, 1)
		if r.T == tick {
			ac.bump(e, r.E, 1)
		}
	}
	ac.mass += int64(len(ac.ring) - ac.head)
	ac.ring = append(ac.ring, accSpike{T: tick, E: e}) //nolint:elsaalloc // amortized: the ring is bounded by the spikes inside one MaxLag window
	if ac.mass > int64(ac.cfg.Budget) {
		ac.switchToBuckets()
	}
}

// switchToBuckets degrades to the block-bucket upper bound: the live
// ring spikes (at most two blocks wide, since the ring spans MaxLag)
// seed the block counts. Pairs among them were already counted exactly,
// so the seeded products double-count those — the bound only ever moves
// up, which is the direction conservative pruning needs.
func (ac *Accumulator) switchToBuckets() {
	ac.exact = false
	g := ac.cfg.MaxLag + 1
	ac.prev, ac.cur = make(map[int]int32), make(map[int]int32)
	ac.prevBlock, ac.curBlock = -1, ac.lastTick/g
	for _, r := range ac.ring[ac.head:] {
		if b := r.T / g; b == ac.curBlock {
			ac.cur[r.E]++
		} else {
			ac.prevBlock = b
			ac.prev[r.E]++
		}
	}
	ac.ring, ac.head = nil, 0
}

// bucketAdd folds a spike into the open block, flushing closed blocks'
// pair products on block advance.
func (ac *Accumulator) bucketAdd(tick, e int) {
	if b := tick / (ac.cfg.MaxLag + 1); b != ac.curBlock {
		ac.flushBlock()
		if b != ac.curBlock+1 {
			// A gap: the closed block has no adjacent successor, so its
			// cross products are zero and prev is irrelevant.
			ac.prev = make(map[int]int32)
			ac.prevBlock = -1
		}
		ac.curBlock = b
	}
	ac.cur[e]++
}

// flushBlock adds the closing block's within-block products and the
// previous block's cross products, exactly as blockSweep does for block
// b: cur x cur plus prev x cur when the blocks are adjacent. prev then
// becomes the closed block.
func (ac *Accumulator) flushBlock() {
	for a, na := range ac.cur {
		for b, nb := range ac.cur {
			if a != b {
				ac.bump(a, b, na*nb)
			}
		}
	}
	if ac.prevBlock >= 0 && ac.curBlock == ac.prevBlock+1 {
		for a, na := range ac.prev {
			for b, nb := range ac.cur {
				if a != b {
					ac.bump(a, b, na*nb)
				}
			}
		}
	}
	ac.prev, ac.cur = ac.cur, ac.prev
	ac.prevBlock = ac.curBlock
	for k := range ac.cur {
		delete(ac.cur, k)
	}
}

// flushPending materialises the still-open block's products so emission
// sees them. The block stays open and keeps its counts, so a later final
// flush re-adds these products — an over-count, tolerated because bucket
// mode is an upper bound by construction.
func (ac *Accumulator) flushPending() {
	if ac.exact || len(ac.cur) == 0 {
		return
	}
	for a, na := range ac.cur {
		for b, nb := range ac.cur {
			if a != b {
				ac.bump(a, b, na*nb)
			}
		}
	}
	if ac.prevBlock >= 0 && ac.curBlock == ac.prevBlock+1 {
		for a, na := range ac.prev {
			for b, nb := range ac.cur {
				if a != b {
					ac.bump(a, b, na*nb)
				}
			}
		}
	}
}

// maybeTrim drops spikes older than the horizon cap, amortised to one
// pass per quarter-cap of tick progress. Counters are lifetime totals
// and stay untouched.
func (ac *Accumulator) maybeTrim() {
	hc := ac.cfg.HorizonCap
	if hc <= 0 || ac.lastTick-ac.lastTrim < hc/4+1 {
		return
	}
	ac.lastTrim = ac.lastTick
	cut := ac.lastTick - hc
	for id, tr := range ac.trains {
		i := sort.SearchInts(tr, cut+1)
		if i == 0 {
			continue
		}
		if i == len(tr) {
			delete(ac.trains, id)
			continue
		}
		ac.trains[id] = append(tr[:0], tr[i:]...)
	}
}

// Ticks returns how many closed ticks have been observed.
func (ac *Accumulator) Ticks() int { return ac.ticks }

// LastTick returns the newest closed tick index (-1 before any tick).
func (ac *Accumulator) LastTick() int {
	if ac.ticks == 0 {
		return -1
	}
	return ac.lastTick
}

// Exact reports whether the pair counters are still exact (the mass
// budget has not been blown).
func (ac *Accumulator) Exact() bool { return ac.exact }

// Events returns the number of event types with at least one spike.
func (ac *Accumulator) Events() int { return len(ac.trains) }

// Trains returns the live spike-train view. The map and slices are the
// accumulator's own: valid to read until the next ObserveTick, never to
// mutate.
func (ac *Accumulator) Trains() SpikeTrains { return ac.trains }

// EventStats returns a copy of the per-event statistics.
func (ac *Accumulator) EventStats() map[int]EventStat {
	out := make(map[int]EventStat, len(ac.events))
	for id, es := range ac.events {
		out[id] = *es
	}
	return out
}

// PairCount returns the accumulated count (or upper bound) for the
// ordered pair.
func (ac *Accumulator) PairCount(a, b int) int {
	n := int(ac.counts[pairKey(a, b)])
	if !ac.exact {
		// Include the open block's pending products in the view.
		n += int(ac.cur[a] * ac.cur[b])
		if ac.prevBlock >= 0 && ac.curBlock == ac.prevBlock+1 {
			n += int(ac.prev[a] * ac.cur[b])
		}
	}
	return n
}

// PairCand is one candidate pair emission: an ordered event pair whose
// accumulated co-occurrence count reached MinCount.
type PairCand struct {
	A, B  int
	Count int
}

// Candidates returns every pair at or above MinCount, sorted by (A, B).
// In bucket mode the still-open block's products are flushed first
// (conservatively) so fresh co-occurrences are never invisible.
func (ac *Accumulator) Candidates() []PairCand {
	ac.flushPending()
	return ac.emit(func(k uint64) bool { return true })
}

// DrainDirty returns the candidates whose count changed since the last
// drain, sorted by (A, B), and clears the dirty set. Pairs still below
// MinCount are dropped from the drain but re-dirty on their next
// increment, so crossing the threshold always re-surfaces them. This is
// the delta a refresh needs to re-score.
func (ac *Accumulator) DrainDirty() []PairCand {
	ac.flushPending()
	out := ac.emit(func(k uint64) bool { _, d := ac.dirty[k]; return d })
	ac.dirty = make(map[uint64]struct{})
	return out
}

// emit collects eligible pairs >= MinCount in deterministic (A, B) order.
func (ac *Accumulator) emit(eligible func(uint64) bool) []PairCand {
	need := int32(ac.cfg.MinCount)
	out := make([]PairCand, 0, len(ac.dirty))
	for k, v := range ac.counts {
		if v >= need && eligible(k) {
			out = append(out, PairCand{A: int(k >> 32), B: int(uint32(k)), Count: int(v)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// AccumState is the serialisable form of an Accumulator, riding the
// session snapshot envelope so a killed monitor resumes its incremental
// statistics mid-stream, bit for bit.
//
//elsa:snapshot-envelope
type AccumState struct {
	MaxLag   int   `json:"max_lag"`
	Exact    bool  `json:"exact"`
	Mass     int64 `json:"mass"`
	LastTick int   `json:"last_tick"`
	TickSeen int   `json:"ticks"`

	Trains map[int][]int     `json:"trains,omitempty"`
	Counts map[uint64]int32  `json:"counts,omitempty"`
	Dirty  []uint64          `json:"dirty,omitempty"`
	Events map[int]EventStat `json:"events,omitempty"`
	Ring   []accSpike        `json:"ring,omitempty"`

	PrevBlock int           `json:"prev_block,omitempty"`
	CurBlock  int           `json:"cur_block,omitempty"`
	Prev      map[int]int32 `json:"prev,omitempty"`
	Cur       map[int]int32 `json:"cur,omitempty"`
}

// State snapshots the accumulator. The snapshot is a deep copy with the
// dirty set sorted, so identical accumulator states serialise to
// identical bytes.
//
//elsa:snapshotter encode
func (ac *Accumulator) State() *AccumState {
	st := &AccumState{
		MaxLag:    ac.cfg.MaxLag,
		Exact:     ac.exact,
		Mass:      ac.mass,
		LastTick:  ac.lastTick,
		TickSeen:  ac.ticks,
		PrevBlock: ac.prevBlock,
		CurBlock:  ac.curBlock,
	}
	if len(ac.trains) > 0 {
		st.Trains = make(map[int][]int, len(ac.trains))
		for id, tr := range ac.trains {
			st.Trains[id] = append([]int(nil), tr...)
		}
	}
	if len(ac.counts) > 0 {
		st.Counts = make(map[uint64]int32, len(ac.counts))
		for k, v := range ac.counts {
			st.Counts[k] = v
		}
	}
	if len(ac.dirty) > 0 {
		st.Dirty = make([]uint64, 0, len(ac.dirty))
		for k := range ac.dirty {
			st.Dirty = append(st.Dirty, k)
		}
		sort.Slice(st.Dirty, func(i, j int) bool { return st.Dirty[i] < st.Dirty[j] })
	}
	if len(ac.events) > 0 {
		st.Events = make(map[int]EventStat, len(ac.events))
		for id, es := range ac.events {
			st.Events[id] = *es
		}
	}
	if live := ac.ring[ac.head:]; len(live) > 0 {
		st.Ring = append([]accSpike(nil), live...)
	}
	if len(ac.prev) > 0 {
		st.Prev = copyBlock(ac.prev)
	}
	if len(ac.cur) > 0 {
		st.Cur = copyBlock(ac.cur)
	}
	return st
}

// RestoreAccumulator rebuilds an accumulator from a snapshot. The
// configured window must match the snapshot's — counters accumulated
// under a different MaxLag would silently mean something else.
//
//elsa:snapshotter decode
func RestoreAccumulator(cfg AccumConfig, st *AccumState) (*Accumulator, error) {
	if st == nil {
		return nil, fmt.Errorf("sig: nil accumulator state")
	}
	ac := NewAccumulator(cfg)
	if st.MaxLag != ac.cfg.MaxLag {
		return nil, fmt.Errorf("sig: accumulator snapshot window MaxLag=%d, config wants %d",
			st.MaxLag, ac.cfg.MaxLag)
	}
	ac.exact = st.Exact
	ac.mass = st.Mass
	ac.lastTick = st.LastTick
	ac.ticks = st.TickSeen
	ac.lastTrim = st.LastTick
	for id, tr := range st.Trains {
		if !sort.IntsAreSorted(tr) {
			return nil, fmt.Errorf("sig: accumulator snapshot train %d not sorted", id)
		}
		ac.trains[id] = append([]int(nil), tr...)
	}
	for k, v := range st.Counts {
		ac.counts[k] = v
	}
	for _, k := range st.Dirty {
		ac.dirty[k] = struct{}{}
	}
	for id, es := range st.Events {
		e := es
		ac.events[id] = &e
	}
	ac.ring = append([]accSpike(nil), st.Ring...)
	if !ac.exact {
		ac.prevBlock, ac.curBlock = st.PrevBlock, st.CurBlock
		ac.prev, ac.cur = copyBlock(st.Prev), copyBlock(st.Cur)
		if ac.prev == nil {
			ac.prev = make(map[int]int32)
		}
		if ac.cur == nil {
			ac.cur = make(map[int]int32)
		}
	}
	return ac, nil
}

func copyBlock(m map[int]int32) map[int]int32 {
	if m == nil {
		return nil
	}
	out := make(map[int]int32, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
