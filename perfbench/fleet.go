package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	elsa "github.com/elsa-hpc/elsa"
	"github.com/elsa-hpc/elsa/internal/fleet"
	"github.com/elsa-hpc/elsa/internal/topology"
)

// fleetSnapshotEvery is how many journal entries a shard absorbs between
// automatic snapshots: elsamon's default snapshot cadence. The fleet's
// own default (100000) never fires on the streams a run can afford (a
// shard sees about 20000 entries of a one-day stream), and automatic
// snapshots are part of what this workload is for.
const fleetSnapshotEvery = 10_000

// fleetServer is a fleet.Coordinator with its default four shards,
// partitioned at rack scope as elsaload -shards 4 runs it.
type fleetServer struct {
	coord  *fleet.Coordinator
	merged []fleet.Merged
	closed time.Duration
	stats  fleet.Stats
}

func newFleetServer(st *staged) func(time.Time) (server, error) {
	return func(origin time.Time) (server, error) {
		model, err := st.loadModel()
		if err != nil {
			return nil, err
		}
		coord, err := fleet.New(model, origin, fleet.Config{Scope: topology.ScopeRack, SnapshotEvery: fleetSnapshotEvery})
		if err != nil {
			return nil, err
		}
		return &fleetServer{coord: coord}, nil
	}
}

func (s *fleetServer) feed(rec elsa.Record) error {
	s.merged = append(s.merged, s.coord.Feed(rec)...)
	return nil
}

func (s *fleetServer) finish(time.Time) (*served, error) {
	t0 := time.Now()
	out := s.coord.Close()
	s.closed = time.Since(t0)
	s.merged = append(s.merged, out.Tail...)
	s.stats = out.Stats

	// The shards' results carry the pipeline counters; the merged stream
	// carries the predictions.
	var shards []*elsa.PredictResult
	for _, res := range out.PerShard {
		shards = append(shards, res)
	}
	sum := sumResults(shards)
	sum.Predictions = sum.Predictions[:0]
	for _, m := range s.merged {
		sum.Predictions = append(sum.Predictions, m.Prediction)
	}
	return &served{result: sum, failed: pipelineFailed(sum) + out.Stats.Lost}, nil
}

// fleetBGL replays the serve-bgl stream through a four-shard fleet at
// GOMAXPROCS=nproc: routing, the journal, automatic snapshots and the
// merge all run.
func fleetBGL(r *run) (*outcome, error) {
	runtime.GOMAXPROCS(runtime.NumCPU())
	o := newOutcome()
	st, err := stageRepeated(r, o, bglStream)
	if err != nil {
		return nil, err
	}
	start := newFleetServer(st)
	rp := &replay{samples: r.trace}
	first, err := measureReplay(r, o, rp, st, start)
	if err != nil {
		return nil, err
	}
	rp.setStreaming(o, os.Stdout, "Coordinator.Feed")
	scoreServed(o, st, first)

	feeds := append(append(latencies(nil), rp.intake...), rp.closing...).sorted()
	o.set("fleet.feed_p50_ns", feeds.quantile(0.5))
	o.set("fleet.feed_p99_ns", feeds.quantile(0.99))
	var (
		closes                           latencies
		lost, misrouted, degraded, snaps int64
		skew                             float64
		merged                           int
		gapless                          = true
		where                            string
	)
	for _, srv := range first.srvs {
		fs := srv.(*fleetServer)
		closes.add(fs.closed)
		lost += fs.stats.Lost
		misrouted += fs.stats.Misrouted
		degraded += fs.stats.Degraded
		var most, total int64
		for _, sh := range fs.stats.Shards {
			snaps += sh.Snapshots
			most = max(most, sh.Records)
			total += sh.Records
		}
		skew = max(skew, float64(most)/(float64(total)/float64(len(fs.stats.Shards))))
		if ok, at := seqGapless(fs.merged); !ok && gapless {
			gapless, where = false, at
		}
		merged += len(fs.merged)
	}
	o.set("fleet.close_ms", closes.sorted().quantile(0.5)/1e6)
	o.set("fleet.misrouted", float64(misrouted))
	o.set("fleet.lost", float64(lost))
	o.set("fleet.degraded", float64(degraded))
	o.set("fleet.snapshots", float64(snaps))
	o.set("fleet.shard_skew", skew)

	// Gate: nothing lost or misrouted, and every shard's merge sequence
	// is gapless.
	o.check("fleet-nothing-lost", lost == 0 && misrouted == 0, "lost %d, misrouted %d", lost, misrouted)
	o.check("fleet-seq-gapless", gapless, "%d merged predictions over %d streams%s", merged, len(first.srvs), where)

	if r.trace {
		names := feedSpan{intake: "fleet.feed", tickClose: "fleet.feed.tick_close", perShardTicks: true}
		if err := traceReplay(r, o, rp, st, start, names); err != nil {
			return nil, err
		}
	}
	o.bypassed(liveOnly...)
	o.bypassed("elsa.predict_ns_per_record")
	return o, nil
}

// seqGapless reports whether each shard's Seq runs 0, 1, 2, ... in the
// merged stream, and where it first does not.
func seqGapless(merged []fleet.Merged) (bool, string) {
	next := map[string]int64{}
	for i, m := range merged {
		if m.Seq != next[m.Shard] {
			return false, fmt.Sprintf("; entry %d: %s seq %d, want %d", i, m.Shard, m.Seq, next[m.Shard])
		}
		next[m.Shard]++
	}
	return true, ""
}
