package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	elsa "github.com/elsa-hpc/elsa"
	"github.com/elsa-hpc/elsa/internal/gen"
	"github.com/elsa-hpc/elsa/internal/ingest"
)

// epoch is where every generated log starts, as in the experiments.
var epoch = time.Date(2006, 7, 1, 0, 0, 0, 0, time.UTC)

// tickLen is the monitor's sampling tick.
const tickLen = 10 * time.Second

// streamSpec describes a serve workload: the model is trained on one
// generated day from trainSeed; then `streams` independent streams of
// `days` generated days each are staged, one segment directory per
// stream and each day from its own generator seed derived from the
// run's seed, as elsaload streams them. Each stream is served by its own
// server, like independent systems running the same model.
//
// The training seed is part of the workload, like the profile: every run
// serves the same deployed model and the run's seed varies the traffic.
// Two effects make one long stream a poor sample. The chains and
// detectors a one-day training log yields vary from seed to seed, and
// with them the per-tick cost. And a monitor's per-tick cost settles
// into a level set early in its stream (whether its co-occurrence
// accumulator soon outgrows its exact budget), so one stream is one
// draw. Several independent streams per run average over those draws.
type streamSpec struct {
	profile       gen.Profile
	trainSeed     int64
	streams, days int
}

// staged is one set-up's product: the trained model (serialised, so
// every consumer loads a private copy — monitors learn templates online
// and would otherwise share that state) and the staged streams.
type staged struct {
	model   []byte
	streams []*stream

	genTime, appendTime, trainTime time.Duration // set-up stage times
	generated, appended            int64         // records generated (training day included) and staged
}

// stream is one staged serve stream: its records on disk and its ground
// truth. The records are not kept in memory, so the replay's heap — and
// the garbage collector's work — is the program's, not the benchmark's.
type stream struct {
	n        int64 // records staged
	failures []elsa.Failure
	end      time.Time // end of the generated window
	dir      string    // the segment directory holding records
}

// stage generates, trains and stages one set of serve streams under dir.
func stage(sp streamSpec, seed int64, dir string) (*staged, error) {
	st := &staged{}
	t0 := time.Now()
	trainLog := gen.New(sp.profile, sp.trainSeed).Generate(epoch, 24*time.Hour)
	st.genTime += time.Since(t0)
	st.generated += int64(len(trainLog.Records))

	t0 = time.Now()
	model := elsa.Train(trainLog.Records, trainLog.Start, trainLog.End, elsa.DefaultTrainConfig())
	st.trainTime = time.Since(t0)
	var blob bytes.Buffer
	if err := model.Save(&blob); err != nil {
		return nil, err
	}
	st.model = blob.Bytes()

	for k := 0; k < sp.streams; k++ {
		s, err := st.stageStream(sp, seed*1000+int64(k)*100, trainLog.End, filepath.Join(dir, fmt.Sprintf("stream%d", k)))
		if err != nil {
			return nil, err
		}
		st.streams = append(st.streams, s)
	}
	return st, nil
}

func (st *staged) stageStream(sp streamSpec, seed int64, start time.Time, dir string) (*stream, error) {
	s := &stream{dir: dir}
	w, err := ingest.CreateSegmentDir(dir, ingest.SegmentOptions{})
	if err != nil {
		return nil, err
	}
	day := start
	for d := 0; d < sp.days; d++ {
		t0 := time.Now()
		res := gen.New(sp.profile, seed+int64(d)+1).Generate(day, 24*time.Hour)
		st.genTime += time.Since(t0)
		st.generated += int64(len(res.Records))
		t0 = time.Now()
		for _, rec := range res.Records {
			if err := w.Append(rec); err != nil {
				w.Close()
				return nil, err
			}
		}
		st.appendTime += time.Since(t0)
		st.appended += int64(len(res.Records))
		s.n += int64(len(res.Records))
		s.failures = append(s.failures, res.Failures...)
		day = res.End
	}
	t0 := time.Now()
	if err := w.Close(); err != nil {
		return nil, err
	}
	st.appendTime += time.Since(t0)
	s.end = day
	return s, nil
}

// stageRepeated runs the set-up setupRuns times (setup_s is their
// median), keeps the last product and reports the set-up layers.
func stageRepeated(r *run, o *outcome, sp streamSpec) (*staged, error) {
	var trains, gens, appends []float64
	st, err := repeatSetup(o, func(rep int) (*staged, error) {
		dir := filepath.Join(r.work, fmt.Sprintf("setup%d", rep))
		st, err := stage(sp, r.seed, dir)
		if err != nil {
			return nil, err
		}
		trains = append(trains, st.trainTime.Seconds())
		gens = append(gens, perRecord(st.genTime, st.generated))
		appends = append(appends, perRecord(st.appendTime, st.appended))
		if rep > 0 {
			// Only the last product is used; keep one copy on disk.
			os.RemoveAll(filepath.Join(r.work, fmt.Sprintf("setup%d", rep-1)))
		}
		return st, nil
	})
	if err != nil {
		return nil, err
	}
	o.set("correlate.train_s", median(trains))
	o.set("gen.ns_per_record", median(gens))
	o.set("ingest.append_ns_per_record", median(appends))
	return st, nil
}

// loadModel returns a private copy of the staged model.
func (st *staged) loadModel() (*elsa.Model, error) {
	return elsa.LoadModel(bytes.NewReader(st.model))
}

// readAll appends the whole stream, read with Next, to recs.
func (s *stream) readAll(recs []elsa.Record) ([]elsa.Record, error) {
	b, err := s.open()
	if err != nil {
		return nil, err
	}
	defer b.Close()
	for {
		rec, err := b.Next(context.Background())
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("stream %s holds no records", s.dir)
	}
	return recs, nil
}

// open opens a fresh reader at the start of the stream.
func (s *stream) open() (*ingest.SegDir, error) {
	return ingest.OpenSegDir(s.dir, ingest.SegDirOptions{})
}

// server is the serving shape a replay drives: a bare Monitor or a
// fleet Coordinator.
type server interface {
	feed(rec elsa.Record) error
	// finish closes the server at the end of the stream window and
	// reports what it produced.
	finish(end time.Time) (*served, error)
}

// served is a finished server's output and accounting.
type served struct {
	result *elsa.PredictResult // predictions plus pipeline counters, summed over shards
	failed int64               // records lost to quarantine, shedding, lateness or the fleet
}

// replay accumulates the closed-loop measurements over passes. Per-call
// samples are kept only when samples is set (the --trace 1 run), so the
// end-to-end run's peak memory is the program's and its set-up's.
type replay struct {
	samples               bool
	next, intake, closing latencies
	busy                  time.Duration // Next and Feed time
	records               int64
	ingest                ingest.Stats
}

// rate is the replay's capacity: records per second of Next and Feed.
func (rp *replay) rate() float64 { return float64(rp.records) / rp.busy.Seconds() }

// feedSpan names the Feed spans of the serving shape being traced.
// perShardTicks marks a shape whose shards close their ticks on their
// own records, so tick-closing work is not confined to the feeds that
// advance the global tick.
type feedSpan struct {
	intake, tickClose string
	perShardTicks     bool
}

// pass streams every staged stream once, each through a fresh server
// built by start, timing every Next and Feed. Unless mustFinish is set
// it stops at stop and then reports full=false and no results. With a
// tracer it records one span per call, under a root span per record.
func (rp *replay) pass(st *staged, start func(origin time.Time) (server, error), stop time.Time, mustFinish bool, tr *tracer, names feedSpan) (outs []*served, srvs []server, full bool, err error) {
	root := int32(-1)
	if tr != nil {
		root = tr.open("replay.pass", -1)
		defer tr.close(root)
	}
	for _, s := range st.streams {
		out, srv, full, err := rp.serve(s, start, stop, mustFinish, tr, root, names)
		if err != nil || !full {
			return nil, nil, false, err
		}
		outs, srvs = append(outs, out), append(srvs, srv)
	}
	return outs, srvs, true, nil
}

// serve streams one staged stream through a fresh server.
func (rp *replay) serve(s *stream, start func(time.Time) (server, error), stop time.Time, mustFinish bool, tr *tracer, root int32, names feedSpan) (*served, server, bool, error) {
	b, err := s.open()
	if err != nil {
		return nil, nil, false, err
	}
	defer b.Close()
	var (
		srv    server
		origin time.Time
		hi     = int64(-1)
		ctx    = context.Background()
		rec0   = rp.records
	)
	mark := time.Now()
	prev := int32(-1) // the traced record span still open
	for i := rec0; ; i++ {
		if !mustFinish && i%256 == 0 && mark.After(stop) {
			rp.ingest = addIngest(rp.ingest, b.Stats())
			if srv != nil {
				// Out of time: shut the server down (a fleet's shard
				// workers stop on Close); its partial output is not used.
				_, err := srv.finish(s.end)
				return nil, nil, false, err
			}
			return nil, nil, false, nil
		}
		t0 := mark
		if tr != nil {
			// A record span runs until the driver turns to the next
			// record, so its self time is the loop's own bookkeeping.
			t0 = time.Now()
			if prev >= 0 {
				tr.spans[prev].end = tr.ns(t0)
			}
		}
		rec, err := b.Next(ctx)
		t1 := time.Now()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, false, err
		}
		tf := t1
		if srv == nil {
			origin = rec.Time.Truncate(tickLen)
			if srv, err = start(origin); err != nil {
				return nil, nil, false, err
			}
			tf = time.Now() // building the server is not serving
		}
		ti := int64(rec.Time.Sub(origin) / tickLen)
		closes := ti > hi && hi >= 0
		hi = max(hi, ti)
		if err := srv.feed(rec); err != nil {
			return nil, nil, false, err
		}
		t2 := time.Now()
		if rp.samples {
			rp.next.add(t1.Sub(t0))
			if closes {
				rp.closing.add(t2.Sub(tf))
			} else {
				rp.intake.add(t2.Sub(tf))
			}
		}
		rp.busy += t1.Sub(t0) + t2.Sub(tf)
		rp.records++
		if tr != nil {
			prev = tr.add("record", root, t0, time.Time{}, i, -1)
			tr.add("ingest.next", prev, t0, t1, i, -1)
			if closes {
				tr.add(names.tickClose, prev, tf, t2, i, ti)
			} else {
				tr.add(names.intake, prev, tf, t2, i, -1)
			}
		}
		mark = t2
	}
	rp.ingest = addIngest(rp.ingest, b.Stats())
	if srv == nil {
		return nil, nil, false, fmt.Errorf("stream %s holds no records", s.dir)
	}
	var fin int32
	if tr != nil {
		fin = tr.open("server.close", root)
	}
	out, err := srv.finish(s.end)
	if tr != nil {
		tr.close(fin)
	}
	return out, srv, true, err
}

func addIngest(a, b ingest.Stats) ingest.Stats {
	a.Delivered += b.Delivered
	a.Quarantined += b.Quarantined
	a.Resyncs += b.Resyncs
	return a
}

// setStreaming reports the closed-loop latency metrics of a replay.
func (rp *replay) setStreaming(o *outcome, w io.Writer, feedName string) {
	all := append(append(latencies(nil), rp.intake...), rp.closing...).sorted()
	closing := rp.closing.sorted()
	tv, tp := closing.tail()
	o.set("records_per_s", rp.rate())
	o.set("feed_p50_us", all.quantile(0.5)/1e3)
	o.set("analysis_p50_us", closing.quantile(0.5)/1e3)
	o.set("analysis_tail_us", tv/1e3)
	describe(w, feedName, all, 1e3, "us")
	describe(w, "analysis (tick-closing "+feedName+")", closing, 1e3, "us")
	if len(closing) > 0 {
		fmt.Fprintf(w, "# analysis_tail_us is p%.6g of %d tick-closing feeds\n", tp, len(closing))
	}
}

// phaseSplit reads each stream whole with Next into memory, then feeds
// it from memory, taking runtime/metrics deltas around each phase so the
// allocations of ingest and of the pipeline are measured apart.
func phaseSplit(o *outcome, st *staged, start func(origin time.Time) (server, error)) error {
	var next, feed runtimeCounters
	var n int64
	for _, s := range st.streams {
		recs := make([]elsa.Record, 0, s.n)
		c0 := readRuntime()
		recs, err := s.readAll(recs)
		if err != nil {
			return err
		}
		next = next.add(readRuntime().sub(c0))
		srv, err := start(recs[0].Time.Truncate(tickLen))
		if err != nil {
			return err
		}
		c0 = readRuntime()
		for _, rec := range recs {
			if err := srv.feed(rec); err != nil {
				return err
			}
		}
		feed = feed.add(readRuntime().sub(c0))
		if _, err := srv.finish(s.end); err != nil {
			return err
		}
		n += int64(len(recs))
	}
	// The slice the records are read into is sized up front, so the Next
	// phase counts only what Next allocates.
	o.set("ingest.next_allocs_per_record", float64(next.allocs)/float64(n))
	o.set("pipeline.feed_allocs_per_record", float64(feed.allocs)/float64(n))
	return nil
}
