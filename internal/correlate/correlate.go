// Package correlate drives the offline correlation extraction: it turns an
// event-stamped training log into per-event behaviour profiles, outlier
// spike trains, cross-correlation seed pairs and finally correlation
// chains. Three modes implement the three methods Table III compares:
//
//   - Hybrid: the paper's contribution — signal characterisation and
//     outlier filtering feed cross-correlation seed pairs into the
//     gradual-itemset miner, which grows multi-event chains.
//   - SignalOnly: the authors' earlier pure signal-analysis approach —
//     the cross-correlation pairs themselves are the chains (many short
//     sequences, no multi-event consolidation).
//   - DataMiningOnly: a classic association-rule baseline (Zheng et al.
//     style): raw occurrence trains, no signal classes, no outlier
//     cleaning, a fixed small correlation window and stricter support.
package correlate

import (
	"sort"
	"sync"
	"time"

	"github.com/elsa-hpc/elsa/internal/gradual"
	"github.com/elsa-hpc/elsa/internal/logs"
	"github.com/elsa-hpc/elsa/internal/outlier"
	"github.com/elsa-hpc/elsa/internal/sig"
)

// Mode selects the correlation method.
type Mode int

// Methods compared in the paper's Table III.
const (
	Hybrid Mode = iota
	SignalOnly
	DataMiningOnly
)

var modeNames = [...]string{"hybrid", "signal", "datamining"}

// now is the clock behind the training-stage wall-time telemetry
// (Stats.Characterize/Seed/Mine). It is a variable so tests can freeze
// it; the model's *contents* never depend on it — only the reported
// timings do, which is exactly why the determinism contract allows this
// single seam.
var now = time.Now //nolint:elsadetflow // telemetry-only clock: feeds Stats durations, never chain extraction

// String names the mode as in Table III.
func (m Mode) String() string {
	if m < Hybrid || m > DataMiningOnly {
		return "invalid"
	}
	return modeNames[m]
}

// Chain is one extracted correlation sequence plus its metadata.
type Chain struct {
	gradual.Itemset
	// Predictive is false for chains whose events are all informational
	// (restart sequences, multiline messages); the paper eliminates these
	// automatically using the severity field.
	Predictive bool
	// MaxSeverity is the worst severity among the chain's event types.
	MaxSeverity logs.Severity
}

// Config tunes training.
type Config struct {
	Step      time.Duration
	Classify  sig.ClassifyConfig
	CrossCorr sig.CrossCorrConfig
	Mining    gradual.Config // Horizon is overwritten per training window

	// OutlierWindow/K/Floor calibrate the per-signal outlier filters.
	OutlierWindow int
	OutlierK      float64
	OutlierFloor  float64

	// SilentOccupancy is the maximum fraction of samples with activity
	// for an event to take the sparse silent path.
	SilentOccupancy float64
}

// DefaultConfig returns the training parameters used in the experiments.
func DefaultConfig() Config {
	return Config{
		Step:            sig.DefaultStep,
		Classify:        sig.DefaultClassifyConfig(),
		CrossCorr:       sig.DefaultCrossCorrConfig(),
		Mining:          gradual.DefaultConfig(0),
		OutlierWindow:   outlier.DefaultWindow,
		OutlierK:        outlier.DefaultK,
		OutlierFloor:    outlier.DefaultFloor,
		SilentOccupancy: 0.005,
	}
}

// TrainStats reports what the training fast path did: how much of the
// pair space the co-occurrence prefilter pruned before the
// cross-correlation kernel ran, and where the wall-clock went. It is
// diagnostic output, not part of the persisted model.
type TrainStats struct {
	Pairs        sig.PairStats
	Characterize time.Duration
	Seed         time.Duration
	Mine         time.Duration
}

// Model is the trained correlation model the online predictor loads.
type Model struct {
	Mode       Mode
	Step       time.Duration
	TrainStart time.Time
	TrainEnd   time.Time

	// Stats describes the most recent training run; it is not persisted.
	Stats TrainStats `json:"-"`

	// Chains holds every extracted sequence; PredictiveChains indexes the
	// usable subset.
	Chains []Chain

	// Profiles and Thresholds characterise each event type for the online
	// outlier stage.
	Profiles   map[int]sig.Profile
	Thresholds map[int]float64

	// Severity maps event id to the worst severity seen in training.
	Severity map[int]logs.Severity

	// ref carries incremental retraining state between Refresh calls; it
	// is unexported so the model's direct JSON form skips it (snapshots
	// persist it explicitly via RefreshState).
	//elsa:ephemeral serialised explicitly as RefreshState on the monitor envelope; restored via RestoreRefreshState
	ref *refresher
}

// PredictiveChains returns the chains usable for failure prediction.
func (m *Model) PredictiveChains() []Chain {
	out := make([]Chain, 0, len(m.Chains))
	for _, c := range m.Chains {
		if c.Predictive {
			out = append(out, c)
		}
	}
	return out
}

// Train builds the correlation model from an event-stamped training log
// covering [start, end). Records must be time-sorted with EventID set.
func Train(recs []logs.Record, start, end time.Time, mode Mode, cfg Config) *Model {
	if cfg.Step <= 0 {
		cfg.Step = sig.DefaultStep
	}
	horizon := int(end.Sub(start) / cfg.Step)
	model := &Model{
		Mode:       mode,
		Step:       cfg.Step,
		TrainStart: start,
		TrainEnd:   end,
		Profiles:   make(map[int]sig.Profile),
		Thresholds: make(map[int]float64),
		Severity:   make(map[int]logs.Severity),
	}

	// Collect occurrence sample indices and severities per event type.
	occ := make(map[int][]int)
	for _, r := range recs {
		if r.EventID < 0 {
			continue
		}
		i := int(r.Time.Sub(start) / cfg.Step)
		if i < 0 || i >= horizon {
			continue
		}
		train := occ[r.EventID]
		if len(train) == 0 || train[len(train)-1] != i {
			occ[r.EventID] = append(train, i)
		}
		if sev, ok := model.Severity[r.EventID]; !ok || r.Severity > sev {
			model.Severity[r.EventID] = r.Severity
		}
	}

	mark := now()
	trains := characterize(occ, horizon, mode, cfg, model)
	model.Stats.Characterize = now().Sub(mark)

	cc, mining := tuneForMode(mode, horizon, cfg)
	// All three modes seed from the prefiltered pair scan; the pruning
	// stats land on the model so operators can see how much of the E^2
	// space the fast path skipped.
	mark = now()
	seeds, pairStats := sig.AllPairsStats(trains, cc)
	model.Stats.Pairs = pairStats
	model.Stats.Seed = now().Sub(mark)

	mark = now()
	switch mode {
	case Hybrid, DataMiningOnly:
		for _, s := range gradual.Mine(trains, seeds, mining) {
			model.Chains = append(model.Chains, model.newChain(s))
		}
	case SignalOnly:
		// Pure signal analysis: the cross-correlation pairs are the
		// final sequences; no multi-event consolidation happens.
		for _, s := range pairItemsets(trains, seeds, mining) {
			model.Chains = append(model.Chains, model.newChain(s))
		}
	}
	model.Stats.Mine = now().Sub(mark)
	sort.Slice(model.Chains, func(i, j int) bool { return model.Chains[i].Key() < model.Chains[j].Key() })
	return model
}

// characterize profiles every event type and produces its outlier spike
// train, in parallel across event types.
func characterize(occ map[int][]int, horizon int, mode Mode, cfg Config, model *Model) sig.SpikeTrains {
	ids := make([]int, 0, len(occ))
	for id := range occ {
		ids = append(ids, id)
	}
	sort.Ints(ids)

	type result struct {
		id      int
		profile sig.Profile
		train   []int
	}
	results := make([]result, len(ids))
	var wg sync.WaitGroup
	sem := make(chan struct{}, 8)
	for i, id := range ids {
		wg.Add(1)
		go func(i, id int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i] = result{id: id}
			train := occ[id]
			if mode == DataMiningOnly {
				// The baseline mines raw occurrences: no behaviour model,
				// no cleaning. Dense chatter floods its trains.
				results[i].profile = sig.Profile{Event: id, Class: sig.Noise}
				results[i].train = train
				return
			}
			occupancy := float64(len(train)) / float64(horizon+1)
			if occupancy <= cfg.SilentOccupancy {
				// Sparse silent path: every occurrence is an outlier.
				results[i].profile = sig.Profile{Event: id, Class: sig.Silent}
				results[i].train = train
				return
			}
			// Dense path: materialise the signal, characterise, filter.
			// Periodic signals are filtered on their phase residuals so
			// normal beats pass and missed or extra beats flag.
			samples := make([]float64, horizon)
			for _, t := range train {
				if t < horizon {
					samples[t]++
				}
			}
			s := &sig.Signal{Event: id, Step: cfg.Step, Samples: samples}
			p := sig.Characterize(s, cfg.Classify)
			values := samples
			if p.Class == sig.Periodic && len(p.Baseline) > 0 {
				values = sig.Residual(samples, p.Baseline)
			}
			th := outlier.Threshold(p, cfg.OutlierK, cfg.OutlierFloor)
			outliers, _ := outlier.Filter(values, cfg.OutlierWindow, th)
			results[i].profile = p
			results[i].train = outliers
		}(i, id)
	}
	wg.Wait()

	trains := make(sig.SpikeTrains, len(results))
	for _, r := range results {
		model.Profiles[r.id] = r.profile
		model.Thresholds[r.id] = outlier.Threshold(r.profile, cfg.OutlierK, cfg.OutlierFloor)
		if len(r.train) > 0 {
			trains[r.id] = r.train
		}
	}
	return trains
}

// pairItemsets scores seed pairs as standalone 2-item chains for the
// signal-only mode.
func pairItemsets(trains sig.SpikeTrains, seeds []sig.PairCorrelation, cfg gradual.Config) []gradual.Itemset {
	cands := make([][]gradual.Item, 0, len(seeds))
	for _, p := range seeds {
		cands = append(cands, []gradual.Item{{Event: p.A, Delay: 0}, {Event: p.B, Delay: p.Delay}})
	}
	sets := gradual.Evaluate(trains, cands, cfg)
	sort.Slice(sets, func(i, j int) bool { return sets[i].Key() < sets[j].Key() })
	return sets
}

// newChain wraps an itemset with severity metadata. A chain is predictive
// when at least one of its event types has been seen above Info severity
// (the paper's automatic INFO-only elimination).
func (m *Model) newChain(s gradual.Itemset) Chain {
	maxSev := logs.Info
	for _, it := range s.Items {
		if sev := m.Severity[it.Event]; sev > maxSev {
			maxSev = sev
		}
	}
	return Chain{Itemset: s, Predictive: maxSev > logs.Info, MaxSeverity: maxSev}
}
