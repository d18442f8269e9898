package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"time"

	elsa "github.com/elsa-hpc/elsa"
	"github.com/elsa-hpc/elsa/internal/gen"
)

// The offline campaign is elsaexp's Full scale: five training days and
// eleven test days of the base Blue Gene/L profile from one generator.
const (
	offlineTrainDays = 5
	offlineTestDays  = 11
	// tableIIISeed is the seed EXPERIMENTS.md's Table III was measured at,
	// and the row the hybrid method reproduces there.
	tableIIISeed = 42
	tableIIIRow  = "99.3% / 43.8%"
)

// campaign is the offline set-up's product.
type campaign struct {
	model      []byte
	test       []elsa.Record
	truth      []elsa.Failure
	cut, end   time.Time
	genTime    time.Duration
	trainTime  time.Duration
	generated  int64
	predictOut *elsa.PredictResult // set by the traced campaign only
}

// runCampaign generates the log, splits it and trains the hybrid model.
// With a tracer it records a span around each call and goes on to
// Predict and Evaluate, so the trace holds the whole campaign.
func runCampaign(seed int64, tr *tracer) (*campaign, error) {
	root := int32(-1)
	span := func(name string, f func()) {
		t0 := time.Now()
		f()
		if tr != nil {
			tr.add(name, root, t0, time.Now(), -1, -1)
		}
	}
	if tr != nil {
		root = tr.open("offline.campaign", -1)
	}
	c := &campaign{}
	var log *gen.Result
	var train []elsa.Record
	t0 := time.Now()
	span("gen.generate", func() {
		log = gen.New(gen.BlueGeneL(), seed).Generate(epoch, (offlineTrainDays+offlineTestDays)*24*time.Hour)
		c.cut = epoch.Add(offlineTrainDays * 24 * time.Hour)
		c.end = log.End
		train, c.test, c.truth = log.Split(c.cut)
	})
	c.genTime = time.Since(t0)
	c.generated = int64(len(log.Records))
	var model *elsa.Model
	t0 = time.Now()
	span("elsa.train", func() { model = elsa.Train(train, epoch, c.cut, elsa.DefaultTrainConfig()) })
	c.trainTime = time.Since(t0)
	var blob bytes.Buffer
	var err error
	span("elsa.save", func() { err = model.Save(&blob) })
	if err != nil {
		return nil, err
	}
	c.model = blob.Bytes()
	if tr == nil {
		return c, nil
	}
	span("elsa.load", func() { model, err = elsa.LoadModel(bytes.NewReader(c.model)) })
	if err != nil {
		return nil, err
	}
	a0 := readRuntime()
	span("elsa.predict", func() { c.predictOut = model.Predict(c.test, c.cut, c.end) })
	allocs := readRuntime().sub(a0).allocs
	span("elsa.evaluate", func() { elsa.Evaluate(c.predictOut, c.truth, elsa.DefaultMatchConfig()) })
	tr.close(root)
	tr.count(root, map[string]float64{"predict.allocs": float64(allocs), "predict.records": float64(len(c.test))})
	return c, nil
}

// offlineBGL is the paper's Table III campaign: generate, elsa.Train
// (hybrid), Model.Predict over the test window, Evaluate. The measured
// phase repeats Predict on fresh copies of the model.
func offlineBGL(r *run) (*outcome, error) {
	runtime.GOMAXPROCS(runtime.NumCPU())
	o := newOutcome()
	var trains, gens []float64
	c, err := repeatSetup(o, func(int) (*campaign, error) {
		c, err := runCampaign(r.seed, nil)
		if err == nil {
			trains = append(trains, c.trainTime.Seconds())
			gens = append(gens, perRecord(c.genTime, c.generated))
		}
		return c, err
	})
	if err != nil {
		return nil, err
	}
	o.set("correlate.train_s", median(trains))
	o.set("gen.ns_per_record", median(gens))

	var (
		rates []float64
		first *elsa.PredictResult
		same  = true
	)
	stop := r.deadline()
	c0 := readRuntime()
	for len(rates) == 0 || time.Now().Before(stop) {
		model, err := elsa.LoadModel(bytes.NewReader(c.model))
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		res := model.Predict(c.test, c.cut, c.end)
		rates = append(rates, float64(len(c.test))/time.Since(t0).Seconds())
		o.attempted += int64(len(c.test))
		o.failed += pipelineFailed(res)
		if first == nil {
			first = res
		} else if !samePredictions(first.Predictions, res.Predictions) {
			same = false
		}
	}
	o.setRuntime(readRuntime().sub(c0), o.attempted)
	o.set("records_per_s", median(rates))
	o.set("failed_share", float64(o.failed)/float64(o.attempted))
	fmt.Printf("# Model.Predict over %d test records, %d passes: median %.0f rec/s\n", len(c.test), len(rates), median(rates))

	out := elsa.Evaluate(first, c.truth, elsa.DefaultMatchConfig())
	o.set("precision", out.Precision)
	o.set("recall", out.Recall)
	o.set("predict.predictions", float64(len(first.Predictions)))
	o.set("predict.chains_loaded", float64(first.Stats.ChainsLoaded))
	o.set("pipeline.late_records", float64(first.Stats.LateRecords))
	o.set("pipeline.shed_records", float64(first.Stats.ShedRecords))
	o.set("pipeline.quarantined", float64(first.Stats.QuarantinedRecords))
	o.set("pipeline.max_queue", float64(stageStats(first, "sample").MaxQueue))
	row := fmt.Sprintf("%.1f%% / %.1f%%", 100*out.Precision, 100*out.Recall)
	fmt.Printf("# hybrid precision / recall %s (%d of %d failures, %d chains loaded)\n",
		row, out.FailuresHit, out.FailuresTotal, first.Stats.ChainsLoaded)

	// Gates: Predict is deterministic across passes, and at the Table III
	// seed the hybrid row of EXPERIMENTS.md is reproduced.
	o.check("predict-deterministic", same, "%d passes, %d predictions each", len(rates), len(first.Predictions))
	if r.seed == tableIIISeed {
		o.check("table-iii-hybrid", row == tableIIIRow, "measured %s, EXPERIMENTS.md %s", row, tableIIIRow)
	}

	if r.trace {
		if err := traceOffline(r, o, median(rates)); err != nil {
			return nil, err
		}
	}
	o.bypassed(liveOnly...)
	o.bypassed(fleetOnly...)
	// No ingest backend, no per-record Feed: the Run driver is batch.
	o.bypassed("ingest.append_ns_per_record", "ingest.next_ns_per_record", "ingest.next_p99_ns",
		"ingest.next_allocs_per_record", "ingest.quarantined", "ingest.resyncs",
		"pipeline.intake_p50_ns", "pipeline.intake_p99_ns", "pipeline.tick_close_p50_ns",
		"pipeline.tick_close_p99_ns", "pipeline.tick_residual_ns_per_tick",
		"feed_p50_us", "analysis_p50_us", "analysis_tail_us")
	return o, nil
}

// traceOffline runs the campaign once more with spans and reports its
// per-layer ledger.
func traceOffline(r *run, o *outcome, untracedRate float64) error {
	tr := newTracer()
	c, err := runCampaign(r.seed, tr)
	if err != nil {
		return err
	}
	res := c.predictOut
	n := int64(len(c.test))
	predict := tr.total("elsa.predict")
	tmpl, filter, match := stageStats(res, "template"), stageStats(res, "filter"), stageStats(res, "match")
	o.set("elsa.predict_ns_per_record", perRecord(predict, n))
	o.set("helo.template_ns_per_record", perRecord(tmpl.Wall, tmpl.In))
	o.set("pipeline.filter_ns_per_tick", perRecord(filter.Wall, filter.In))
	o.set("predict.match_ns_per_tick", perRecord(match.Wall, match.In))
	o.set("pipeline.feed_allocs_per_record", tr.counters[0].values["predict.allocs"]/float64(n))

	// Ledger 1: the campaign's calls cover its wall time.
	wall := tr.dur(0)
	var parts time.Duration
	for _, s := range tr.spans[1:] {
		parts += time.Duration(s.end - s.start)
	}
	miss := float64(wall-parts) / float64(wall)
	o.check("ledger-wall", miss >= 0 && miss <= ledgerTolerance,
		"generate+train+save+load+predict+evaluate %v = campaign wall %v, miss %.2f%% (tolerance %.0f%%)",
		parts.Round(time.Millisecond), wall.Round(time.Millisecond), 100*miss, 100*ledgerTolerance)
	// Ledger 2: the Run driver runs each stage on its own goroutine inside
	// the Predict call, so no stage's wall may exceed the call's.
	longest := max(tmpl.Wall, filter.Wall, match.Wall)
	o.check("ledger-tick", float64(longest) <= (1+ledgerTolerance)*float64(predict),
		"longest stage wall %v within Predict %v", longest.Round(time.Millisecond), predict.Round(time.Millisecond))
	setOverhead(o, float64(n)/predict.Seconds(), untracedRate)
	fmt.Fprintf(os.Stdout, "# traced campaign: train %v, predict %v\n", tr.total("elsa.train").Round(time.Millisecond), predict.Round(time.Millisecond))
	return writeTrace(r, tr)
}
