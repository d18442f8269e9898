package main

import (
	"fmt"
	"math"
	"time"

	elsa "github.com/elsa-hpc/elsa"
	"github.com/elsa-hpc/elsa/internal/ingest"
)

// traceReplay is the traced half of a --trace 1 run for the closed-loop
// workloads: one full pass with a span around every Next and Feed, the
// per-layer ledger computed from the spans and the program's own
// counters, both reconciliation checks, the tracing overhead against
// the untraced passes, and the phase-split allocation pass.
func traceReplay(r *run, o *outcome, untraced *replay, st *staged, start func(time.Time) (server, error), names feedSpan) error {
	tr := newTracer()
	rp := &replay{samples: true}
	tr.count(-1, counterValues(readRuntime(), rp, nil))
	outs, _, _, err := rp.pass(st, start, time.Time{}, true, tr, names)
	if err != nil {
		return err
	}
	res := sumResults(resultsOf(outs))
	tr.count(0, counterValues(readRuntime(), rp, res))
	setLayers(o, tr, res, rp.records, rp.next, rp.intake, rp.closing, rp.ingest)

	tickNames := []string{names.tickClose}
	if names.perShardTicks {
		// A fleet shard closes its ticks on records that need not advance
		// the global tick, so every Feed counts as tick-closing time.
		tickNames = append(tickNames, names.intake)
	}
	if err := ledger(o, tr, res, tickNames); err != nil {
		return err
	}
	setOverhead(o, rp.rate(), untraced.rate())
	if err := phaseSplit(o, st, start); err != nil {
		return err
	}
	return writeTrace(r, tr)
}

// traceLive is traceReplay for the open loop: the same schedule replayed
// once more with spans, then the phase-split allocation pass run closed
// loop.
func traceLive(r *run, o *outcome, untraced *liveRun, st *staged, n int64) error {
	tr := newTracer()
	tr.count(-1, counterValues(readRuntime(), &replay{}, nil))
	lv, err := liveLoop(st, n, tr, true)
	if err != nil {
		return err
	}
	tr.count(0, counterValues(readRuntime(), &replay{records: lv.records}, lv.result))
	var next latencies
	for _, s := range tr.spans {
		if s.name == "ingest.next" {
			next = append(next, s.end-s.start)
		}
	}
	setLayers(o, tr, lv.result, lv.records, next, lv.intake, lv.closing, lv.ingest)
	if err := ledger(o, tr, lv.result, []string{"monitor.feed.tick_close"}); err != nil {
		return err
	}
	setOverhead(o, float64(lv.records)/lv.busy.Seconds(), float64(untraced.records)/untraced.busy.Seconds())
	if err := phaseSplit(o, st, newMonitorServer(st)); err != nil {
		return err
	}
	return writeTrace(r, tr)
}

// setLayers reports the per-layer numbers of one traced pass: the ingest
// and Feed spans, and the stage counters the program returned.
func setLayers(o *outcome, tr *tracer, res *elsa.PredictResult, n int64, next, intake, closing latencies, ist ingest.Stats) {
	tmpl, filter, match := stageStats(res, "template"), stageStats(res, "filter"), stageStats(res, "match")
	next, intake, closing = next.sorted(), intake.sorted(), closing.sorted()
	o.set("ingest.next_ns_per_record", perRecord(tr.total("ingest.next"), n))
	o.set("ingest.next_p99_ns", next.quantile(0.99))
	o.set("ingest.quarantined", float64(ist.Quarantined))
	o.set("ingest.resyncs", float64(ist.Resyncs))
	o.set("helo.template_ns_per_record", perRecord(tmpl.Wall, tmpl.In))
	o.set("pipeline.intake_p50_ns", intake.quantile(0.5))
	o.set("pipeline.intake_p99_ns", intake.quantile(0.99))
	o.set("pipeline.tick_close_p50_ns", closing.quantile(0.5))
	o.set("pipeline.tick_close_p99_ns", closing.quantile(0.99))
	o.set("pipeline.filter_ns_per_tick", perRecord(filter.Wall, filter.In))
	o.set("predict.match_ns_per_tick", perRecord(match.Wall, match.In))
}

// ledger runs the two reconciliation checks on a traced pass (span 0)
// and reports the tick residual.
//
// Ledger 1: the pass's layers — every span under it, plus the record
// spans' self time, which is the driver residual (loop bookkeeping and
// tracing) — add up to its wall time, so no time fell outside the spans.
//
// Ledger 2: the filter and match stage walls the program reports, plus
// the tick residual, make up the tick-closing time observed from
// outside (the tick-closing Feeds and the final flush). The residual is
// the closing record's own intake, the accumulator tee and the driver
// around the stages; the check fails if the stage walls do not fit.
func ledger(o *outcome, tr *tracer, res *elsa.PredictResult, tickNames []string) error {
	if len(tr.spans) == 0 || tr.spans[0].parent != -1 {
		return fmt.Errorf("trace has no pass span")
	}
	pass := tr.dur(0)
	var parts time.Duration
	for i, s := range tr.spans[1:] {
		switch {
		case s.name == "record":
			parts += tr.selfOf(int32(i + 1))
		default:
			parts += time.Duration(s.end - s.start)
		}
	}
	miss1 := math.Abs(float64(parts-pass)) / float64(pass)
	o.check("ledger-wall", miss1 <= ledgerTolerance, "spans + driver residual %v = pass wall %v, miss %.2f%% (tolerance %.0f%%)",
		parts.Round(time.Millisecond), pass.Round(time.Millisecond), 100*miss1, 100*ledgerTolerance)

	filter, match := stageStats(res, "filter"), stageStats(res, "match")
	tickTime := tr.total("server.close")
	for _, name := range tickNames {
		tickTime += tr.total(name)
	}
	residual := tickTime - filter.Wall - match.Wall
	o.set("pipeline.tick_residual_ns_per_tick", perRecord(residual, filter.In))
	o.check("ledger-tick", float64(residual) >= -ledgerTolerance*float64(tickTime),
		"filter %v + match %v + residual %v = tick-close %v (tolerance %.0f%%)",
		filter.Wall.Round(time.Millisecond), match.Wall.Round(time.Millisecond),
		residual.Round(time.Millisecond), tickTime.Round(time.Millisecond), 100*ledgerTolerance)
	return nil
}

// setOverhead reports how much slower the traced pass ran than the
// untraced measurement, as a share of the untraced rate.
func setOverhead(o *outcome, traced, untraced float64) {
	overhead := 1 - traced/untraced
	o.set("driver.trace_overhead", overhead)
	fmt.Printf("# trace overhead %.2f%% (traced %.0f rec/s, untraced %.0f rec/s)\n", 100*overhead, traced, untraced)
}

func writeTrace(r *run, tr *tracer) error {
	path, err := tr.write(r.traces, fmt.Sprintf("%s-seed%d", r.name, r.seed))
	if err != nil {
		return err
	}
	fmt.Printf("# %d spans written to %s\n", len(tr.spans), path)
	return nil
}

// counterValues is the counter set read at a traced pass's boundaries:
// the runtime, the ingest backend and, at the end, the pipeline stages.
func counterValues(c runtimeCounters, rp *replay, res *elsa.PredictResult) map[string]float64 {
	v := map[string]float64{
		"runtime.allocs":      float64(c.allocs),
		"runtime.bytes":       float64(c.bytes),
		"runtime.gc_cycles":   float64(c.gcCycles),
		"runtime.gc_pause_ns": float64(c.pause),
		"replay.records":      float64(rp.records),
		"ingest.delivered":    float64(rp.ingest.Delivered),
		"ingest.quarantined":  float64(rp.ingest.Quarantined),
	}
	if res != nil {
		for _, s := range res.Stats.Stages {
			v["stage."+s.Name+".in"] = float64(s.In)
			v["stage."+s.Name+".wall_ns"] = float64(s.Wall)
		}
	}
	return v
}
