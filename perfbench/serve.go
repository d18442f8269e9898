package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	elsa "github.com/elsa-hpc/elsa"
	"github.com/elsa-hpc/elsa/internal/gen"
)

// modelSeed generates the training log of the streaming workloads'
// deployed model: the seed of the paper campaign in EXPERIMENTS.md.
const modelSeed = 42

// bglStream is what serve-bgl and fleet-bgl replay: the base Blue Gene/L
// profile (42 event types), eight independent one-day streams.
var bglStream = streamSpec{profile: gen.BlueGeneL(), trainSeed: modelSeed, streams: 8, days: 1}

// monitorServer is a bare Monitor: the default elsamon shape.
type monitorServer struct {
	mon   *elsa.Monitor
	preds []elsa.Prediction // the stream Feed and AdvanceTo returned
}

func newMonitorServer(st *staged) func(time.Time) (server, error) {
	return func(origin time.Time) (server, error) {
		model, err := st.loadModel()
		if err != nil {
			return nil, err
		}
		return &monitorServer{mon: model.NewMonitor(origin)}, nil
	}
}

func (s *monitorServer) feed(rec elsa.Record) error {
	preds, err := s.mon.Feed(rec)
	s.preds = append(s.preds, preds...)
	return err
}

func (s *monitorServer) finish(end time.Time) (*served, error) {
	s.preds = append(s.preds, s.mon.AdvanceTo(end)...)
	res := s.mon.Close()
	return &served{result: res, failed: pipelineFailed(res)}, nil
}

// pipelineFailed counts the records a pipeline run did not serve.
func pipelineFailed(res *elsa.PredictResult) int64 {
	st := res.Stats
	return int64(st.QuarantinedRecords + st.ShedRecords + st.LateRecords)
}

// serveBGL is the closed-loop, as-fast-as-possible replay of the staged
// streams, each into its own Monitor, at GOMAXPROCS=1: no Refresh, no
// snapshots.
func serveBGL(r *run) (*outcome, error) {
	runtime.GOMAXPROCS(1)
	o := newOutcome()
	st, err := stageRepeated(r, o, bglStream)
	if err != nil {
		return nil, err
	}
	start := newMonitorServer(st)
	rp := &replay{samples: r.trace}
	first, err := measureReplay(r, o, rp, st, start)
	if err != nil {
		return nil, err
	}
	rp.setStreaming(o, os.Stdout, "Monitor.Feed")
	scoreServed(o, st, first)

	// Gate: two drivers, one answer — each stream's live Monitor emits
	// exactly what batch Predict emits over the same records.
	var predictWall time.Duration
	var streamed, batched int
	same := true
	for k, s := range st.streams {
		model, err := st.loadModel()
		if err != nil {
			return nil, err
		}
		recs, err := s.readAll(nil)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		batch := model.Predict(recs, recs[0].Time.Truncate(tickLen), s.end)
		predictWall += time.Since(t0)
		got := first.srvs[k].(*monitorServer).preds
		same = same && samePredictions(got, batch.Predictions)
		streamed += len(got)
		batched += len(batch.Predictions)
	}
	o.check("monitor-equals-predict", same, "%d streams: monitor %d predictions, Predict %d", len(st.streams), streamed, batched)
	o.set("elsa.predict_ns_per_record", perRecord(predictWall, st.appended))

	if r.trace {
		names := feedSpan{intake: "monitor.feed", tickClose: "monitor.feed.tick_close"}
		if err := traceReplay(r, o, rp, st, start, names); err != nil {
			return nil, err
		}
	}
	o.bypassed(liveOnly...)
	o.bypassed(fleetOnly...)
	return o, nil
}

// firstPass is the first, complete pass of a measured replay, kept for
// the correctness gates: per stream, its server and what it served.
type firstPass struct {
	srvs []server
	outs []*served
}

// measureReplay runs untraced closed-loop passes until the measured
// phase is over. The first pass always runs to the end of the streams.
func measureReplay(r *run, o *outcome, rp *replay, st *staged, start func(time.Time) (server, error)) (*firstPass, error) {
	var first *firstPass
	stop := r.deadline()
	c0 := readRuntime()
	for pass := 0; ; pass++ {
		outs, srvs, full, err := rp.pass(st, start, stop, pass == 0, nil, feedSpan{})
		if err != nil {
			return nil, err
		}
		if pass == 0 {
			first = &firstPass{srvs: srvs, outs: outs}
		}
		for _, out := range outs {
			o.failed += out.failed
		}
		if !full || time.Now().After(stop) {
			break
		}
	}
	o.setRuntime(readRuntime().sub(c0), rp.records)
	o.attempted = rp.records
	o.failed += rp.ingest.Quarantined
	o.set("failed_share", float64(o.failed)/float64(o.attempted))
	o.set("pipeline.max_queue", float64(stageStats(sumResults(resultsOf(first.outs)), "sample").MaxQueue))
	return first, nil
}

// resultsOf returns each served stream's run result.
func resultsOf(outs []*served) []*elsa.PredictResult {
	var rs []*elsa.PredictResult
	for _, out := range outs {
		rs = append(rs, out.result)
	}
	return rs
}

// scoreServed scores each stream of the first pass against its
// generator's truth and reports the pooled precision and recall, and
// the pipeline counters summed over the streams.
func scoreServed(o *outcome, st *staged, first *firstPass) {
	var tp, preds, hit, total int
	for k, out := range first.outs {
		sc := elsa.Evaluate(out.result, st.streams[k].failures, elsa.DefaultMatchConfig())
		tp += sc.TruePositives
		preds += sc.TruePositives + sc.FalsePositives
		hit += sc.FailuresHit
		total += sc.FailuresTotal
	}
	res := sumResults(resultsOf(first.outs))
	o.set("precision", ratio(tp, preds))
	o.set("recall", ratio(hit, total))
	o.set("predict.predictions", float64(len(res.Predictions)))
	o.set("predict.chains_loaded", float64(res.Stats.ChainsLoaded))
	o.set("pipeline.late_records", float64(res.Stats.LateRecords))
	o.set("pipeline.shed_records", float64(res.Stats.ShedRecords))
	o.set("pipeline.quarantined", float64(res.Stats.QuarantinedRecords))
	fmt.Printf("# precision %.4f recall %.4f (%d of %d failures, %d predictions)\n",
		ratio(tp, preds), ratio(hit, total), hit, total, preds)
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// sumResults folds run results into one: predictions concatenated,
// pipeline counters and stage counters summed (the deepest queue is the
// maximum).
func sumResults(rs []*elsa.PredictResult) *elsa.PredictResult {
	sum := &elsa.PredictResult{}
	idx := map[string]int{}
	for _, res := range rs {
		sum.Predictions = append(sum.Predictions, res.Predictions...)
		sum.Stats.ChainsLoaded = max(sum.Stats.ChainsLoaded, res.Stats.ChainsLoaded)
		sum.Stats.LateRecords += res.Stats.LateRecords
		sum.Stats.ShedRecords += res.Stats.ShedRecords
		sum.Stats.QuarantinedRecords += res.Stats.QuarantinedRecords
		for _, s := range res.Stats.Stages {
			i, ok := idx[s.Name]
			if !ok {
				i = len(sum.Stats.Stages)
				idx[s.Name] = i
				sum.Stats.Stages = append(sum.Stats.Stages, elsa.StageStats{Name: s.Name})
			}
			acc := &sum.Stats.Stages[i]
			acc.In += s.In
			acc.Out += s.Out
			acc.Wall += s.Wall
			acc.MaxQueue = max(acc.MaxQueue, s.MaxQueue)
		}
	}
	return sum
}

// stageStats returns the named stage's counters from a run result.
func stageStats(res *elsa.PredictResult, name string) elsa.StageStats {
	for _, s := range res.Stats.Stages {
		if s.Name == name {
			return s
		}
	}
	return elsa.StageStats{Name: name}
}

func samePredictions(a, b []elsa.Prediction) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// liveOnly and fleetOnly are the per-layer metrics of layers that only
// live-bgl200 and fleet-bgl run.
var (
	liveOnly = []string{
		"lag_p50_us", "lag_tail_us",
		"correlate.refresh_p50_ms", "correlate.refresh_max_ms", "correlate.refresh_rounds",
		"correlate.refresh_full_mines", "correlate.refresh_dirty_pairs",
		"elsa.snapshot_ms", "elsa.snapshot_bytes", "elsa.resume_ms",
		"driver.late_max_ms", "driver.backlog_max",
	}
	fleetOnly = []string{
		"fleet.feed_p50_ns", "fleet.feed_p99_ns", "fleet.close_ms", "fleet.shard_skew",
		"fleet.snapshots", "fleet.degraded", "fleet.misrouted", "fleet.lost",
	}
)
