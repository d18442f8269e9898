package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	elsa "github.com/elsa-hpc/elsa"
	"github.com/elsa-hpc/elsa/internal/bench"
	"github.com/elsa-hpc/elsa/internal/ingest"
)

// live-bgl200's fixed settings. The rate is about 40% of the Next+Feed
// capacity of one Monitor on this profile (some 15000 records/s on a
// 2-CPU x86 VM), leaving room for the Refresh and Snapshot stalls; the
// cadences are elsamon's: a snapshot every 10000 records (the
// -snapshot-every default) and a Refresh every 3600 stream ticks, ten
// hours of log (the -refresh-every 50000 example of its docs, in ticks).
const (
	liveRate          = 6000 // records per second, open loop
	liveRefreshTicks  = 3600
	liveSnapshotEvery = 10000
)

// liveStream is bench.ScaledBGL(200): about 200 event types, so the pair
// space is some 22 times that of the base profile. One day is staged;
// a run replays as much of it as its schedule reaches.
var liveStream = streamSpec{profile: bench.ScaledBGL(200), trainSeed: modelSeed, streams: 1, days: 1}

// liveRun is what one open-loop replay measured.
type liveRun struct {
	lag, intake, closing latencies
	refreshes            []elsa.RefreshStats
	snapshots            latencies
	snapBytes            int
	busy                 time.Duration // Next and Feed time
	lateMax              time.Duration // worst oversleep of the schedule
	backlogMax           int64         // most records due but not yet started
	records              int64
	ingest               ingest.Stats

	// The last snapshot and the driver state at that point, for the
	// resume gate.
	snap   []byte
	snapHi int64
	origin time.Time
	last   time.Time // the last record's time
	result *elsa.PredictResult
}

// liveLoop replays n records on the open-loop schedule: record i is due
// at i/liveRate seconds after the start and is timed from then, so a
// stall is charged to every record queued behind it. Per-record samples
// are kept only when samples is set.
func liveLoop(st *staged, n int64, tr *tracer, samples bool) (*liveRun, error) {
	b, err := st.streams[0].open()
	if err != nil {
		return nil, err
	}
	defer b.Close()
	model, err := st.loadModel()
	if err != nil {
		return nil, err
	}
	var (
		lv   = &liveRun{}
		mon  *elsa.Monitor
		hi   = int64(-1)
		ctx  = context.Background()
		root = int32(-1)
	)
	if tr != nil {
		root = tr.open("live.pass", -1)
	}
	t0 := time.Now()
	for i := int64(0); i < n; i++ {
		due := t0.Add(time.Duration(float64(i) * float64(time.Second) / liveRate))
		if now := time.Now(); now.Before(due) {
			waitUntil(due)
			late := time.Since(due)
			lv.lateMax = max(lv.lateMax, late)
			if tr != nil {
				tr.add("driver.wait", root, now, time.Now(), i, -1)
			}
		} else {
			lv.backlogMax = max(lv.backlogMax, int64(now.Sub(t0).Seconds()*liveRate)-i)
		}
		s0 := time.Now()
		rec, err := b.Next(ctx)
		if err != nil {
			return nil, fmt.Errorf("record %d of %d: %w", i, n, err)
		}
		s1 := time.Now()
		if mon == nil {
			lv.origin = rec.Time.Truncate(tickLen)
			mon = model.NewMonitor(lv.origin)
		}
		lv.last = rec.Time
		ti := int64(rec.Time.Sub(lv.origin) / tickLen)
		closes := ti > hi && hi >= 0
		refresh := closes && ti/liveRefreshTicks > hi/liveRefreshTicks
		hi = max(hi, ti)
		if _, err := mon.Feed(rec); err != nil {
			return nil, err
		}
		s2 := time.Now()
		lv.busy += s2.Sub(s0)
		if samples {
			lv.lag.add(s2.Sub(due))
			if closes {
				lv.closing.add(s2.Sub(s1))
			} else {
				lv.intake.add(s2.Sub(s1))
			}
		}
		var ri int32
		if tr != nil {
			ri = tr.add("record", root, s0, time.Time{}, i, -1)
			tr.add("ingest.next", ri, s0, s1, i, -1)
			if closes {
				tr.add("monitor.feed.tick_close", ri, s1, s2, i, ti)
			} else {
				tr.add("monitor.feed", ri, s1, s2, i, -1)
			}
		}
		if refresh {
			r0 := time.Now()
			rs := mon.Refresh()
			lv.refreshes = append(lv.refreshes, rs)
			if tr != nil {
				tr.add("monitor.refresh", ri, r0, time.Now(), i, ti)
				tr.count(ri, map[string]float64{"refresh.dirty": float64(rs.Dirty), "refresh.chains": float64(rs.Chains)})
			}
		}
		if (i+1)%liveSnapshotEvery == 0 {
			mon.SetIngestOffset(b.Offset())
			var buf bytes.Buffer
			p0 := time.Now()
			if err := mon.Snapshot(&buf); err != nil {
				return nil, err
			}
			lv.snapshots.add(time.Since(p0))
			if tr != nil {
				tr.add("monitor.snapshot", ri, p0, time.Now(), i, -1)
			}
			lv.snap, lv.snapHi, lv.snapBytes = buf.Bytes(), hi, buf.Len()
		}
		lv.records++
		if tr != nil {
			tr.spans[ri].end = tr.ns(time.Now())
		}
	}
	var fin int32
	if tr != nil {
		fin = tr.open("server.close", root)
	}
	lv.result = mon.Close()
	if tr != nil {
		tr.close(fin)
		tr.close(root)
	}
	lv.ingest = b.Stats()
	return lv, nil
}

// waitUntil returns at t: it sleeps while t is far and spins the last
// stretch, since a sleep can overshoot by more than a record's slot.
func waitUntil(t time.Time) {
	if d := time.Until(t); d > 2*time.Millisecond {
		time.Sleep(d - time.Millisecond)
	}
	for time.Now().Before(t) {
	}
}

// resumeTail resumes a monitor from the run's last snapshot on a fresh
// copy of the model, seeks a fresh reader to the snapshot's ingest
// offset, and feeds it the rest of the n records with the same Refresh
// cadence — a daemon killed after its last snapshot and restarted.
func resumeTail(st *staged, lv *liveRun, n int64) (*elsa.PredictResult, time.Duration, error) {
	model, err := st.loadModel()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	mon, err := model.ResumeMonitor(bytes.NewReader(lv.snap))
	resume := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	off, ok := mon.IngestOffset()
	if !ok {
		return nil, 0, fmt.Errorf("snapshot carries no ingest offset")
	}
	b, err := st.streams[0].open()
	if err != nil {
		return nil, 0, err
	}
	defer b.Close()
	if err := b.Seek(off); err != nil {
		return nil, 0, err
	}
	hi := lv.snapHi
	for i := off.Records; i < n; i++ {
		rec, err := b.Next(context.Background())
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, 0, err
		}
		ti := int64(rec.Time.Sub(lv.origin) / tickLen)
		refresh := ti > hi && ti/liveRefreshTicks > hi/liveRefreshTicks
		hi = max(hi, ti)
		if _, err := mon.Feed(rec); err != nil {
			return nil, 0, err
		}
		if refresh {
			mon.Refresh()
		}
	}
	return mon.Close(), resume, nil
}

// liveBGL200 is the open-loop replay into one Monitor on the 200-type
// profile at GOMAXPROCS=nproc, with periodic Refresh and Snapshot.
func liveBGL200(r *run) (*outcome, error) {
	runtime.GOMAXPROCS(runtime.NumCPU())
	o := newOutcome()
	st, err := stageRepeated(r, o, liveStream)
	if err != nil {
		return nil, err
	}
	s := st.streams[0]
	n := min(s.n, int64(r.seconds.Seconds()*liveRate))

	c0 := readRuntime()
	lv, err := liveLoop(st, n, nil, r.trace)
	if err != nil {
		return nil, err
	}
	o.setRuntime(readRuntime().sub(c0), lv.records)
	o.attempted = lv.records
	o.failed = pipelineFailed(lv.result) + lv.ingest.Quarantined
	o.set("failed_share", float64(o.failed)/float64(o.attempted))
	o.set("records_per_s", float64(lv.records)/lv.busy.Seconds())
	setLive(o, lv)

	// Score only the failures the replayed prefix of the day could see.
	var seen []elsa.Failure
	for _, f := range s.failures {
		if f.Time.Before(lv.last) {
			seen = append(seen, f)
		}
	}
	scoreServed(o, &staged{streams: []*stream{{failures: seen}}}, &firstPass{outs: []*served{{result: lv.result}}})

	// Gate: a monitor resumed from the last snapshot and fed the rest of
	// the records emits exactly the uninterrupted monitor's predictions.
	if lv.snap == nil {
		return nil, fmt.Errorf("a %v run of %d records took no snapshot", r.seconds, n)
	}
	resumed, resume, err := resumeTail(st, lv, n)
	if err != nil {
		return nil, err
	}
	o.set("elsa.resume_ms", float64(resume)/1e6)
	o.check("resume-equals-uninterrupted", samePredictions(resumed.Predictions, lv.result.Predictions),
		"resumed %d predictions, uninterrupted %d", len(resumed.Predictions), len(lv.result.Predictions))

	if r.trace {
		if err := traceLive(r, o, lv, st, n); err != nil {
			return nil, err
		}
	}
	o.bypassed(fleetOnly...)
	o.bypassed("elsa.predict_ns_per_record")
	return o, nil
}

// setLive reports the open-loop latencies and the Refresh and Snapshot
// layers of a live run.
func setLive(o *outcome, lv *liveRun) {
	lag, closing := lv.lag.sorted(), lv.closing.sorted()
	all := append(append(latencies(nil), lv.intake...), lv.closing...).sorted()
	lt, lp := lag.tail()
	at, _ := closing.tail()
	o.set("lag_p50_us", lag.quantile(0.5)/1e3)
	o.set("lag_tail_us", lt/1e3)
	o.set("feed_p50_us", all.quantile(0.5)/1e3)
	o.set("analysis_p50_us", closing.quantile(0.5)/1e3)
	o.set("analysis_tail_us", at/1e3)
	o.set("pipeline.max_queue", float64(stageStats(lv.result, "sample").MaxQueue))
	describe(os.Stdout, "lag (due to Feed done)", lag, 1e3, "us")
	if len(lag) > 0 {
		fmt.Fprintf(os.Stdout, "# lag_tail_us is p%.6g of %d records at %d rec/s\n", lp, len(lag), liveRate)
	}
	describe(os.Stdout, "Monitor.Feed", all, 1e3, "us")
	describe(os.Stdout, "analysis (tick-closing Feed)", closing, 1e3, "us")

	var walls latencies
	var full, dirty int
	for _, rs := range lv.refreshes {
		walls.add(rs.Duration)
		dirty += rs.Dirty
		if rs.Remined {
			full++
		}
	}
	walls = walls.sorted()
	o.set("correlate.refresh_rounds", float64(len(walls)))
	o.set("correlate.refresh_full_mines", float64(full))
	o.set("correlate.refresh_dirty_pairs", float64(dirty))
	if len(walls) > 0 {
		o.set("correlate.refresh_p50_ms", walls.quantile(0.5)/1e6)
		o.set("correlate.refresh_max_ms", float64(walls[len(walls)-1])/1e6)
		describe(os.Stdout, "Monitor.Refresh", walls, 1e6, "ms")
	} else {
		o.bypassed("correlate.refresh_p50_ms", "correlate.refresh_max_ms")
	}
	snaps := lv.snapshots.sorted()
	o.set("elsa.snapshot_ms", snaps.quantile(0.5)/1e6)
	o.set("elsa.snapshot_bytes", float64(lv.snapBytes))
	describe(os.Stdout, "Monitor.Snapshot", snaps, 1e6, "ms")
	o.set("driver.late_max_ms", float64(lv.lateMax)/1e6)
	o.set("driver.backlog_max", float64(lv.backlogMax))
}
