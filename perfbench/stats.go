package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"
)

// latencies holds every sample of one timed operation, in nanoseconds,
// so percentiles are exact order statistics rather than bucket
// midpoints.
type latencies []int64

func (l *latencies) add(d time.Duration) { *l = append(*l, int64(d)) }

// sorted returns the samples in ascending order (a sorted copy).
func (l latencies) sorted() latencies {
	s := slices.Clone(l)
	slices.Sort(s)
	return s
}

// quantile is the nearest-rank q-quantile of sorted samples.
func (l latencies) quantile(q float64) float64 {
	if len(l) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(l)))) - 1
	i = max(0, min(i, len(l)-1))
	return float64(l[i])
}

// tailBeyond is how many samples the reported tail must leave above it.
const tailBeyond = 10

// tail returns the highest percentile that leaves at least tailBeyond
// samples above it, with that percentile (in percent). With fewer than
// tailBeyond+1 samples there is no such percentile and the maximum is
// reported as the 100th.
func (l latencies) tail() (value, pct float64) {
	n := len(l)
	if n <= tailBeyond {
		if n == 0 {
			return math.NaN(), 100
		}
		return float64(l[n-1]), 100
	}
	return float64(l[n-1-tailBeyond]), 100 * float64(n-tailBeyond) / float64(n)
}

// describe prints a latency distribution with its sample count, the way
// every timing in this benchmark is reported: median and tail.
func describe(w io.Writer, name string, l latencies, scale float64, unit string) {
	if len(l) == 0 {
		return
	}
	s := l.sorted()
	tv, tp := s.tail()
	fmt.Fprintf(w, "# %-30s p50 %.4g %s, p%.6g %.4g %s, n=%d\n", name, s.quantile(0.5)/scale, unit, tp, tv/scale, unit, len(s))
}

// runtimeCounters are the runtime/metrics readings the ledger takes at
// phase boundaries.
type runtimeCounters struct {
	allocs, bytes, gcCycles uint64
	pause                   time.Duration
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readRuntime() runtimeCounters {
	metrics.Read(runtimeSamples)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeCounters{
		allocs:   runtimeSamples[0].Value.Uint64(),
		bytes:    runtimeSamples[1].Value.Uint64(),
		gcCycles: runtimeSamples[2].Value.Uint64(),
		pause:    time.Duration(ms.PauseTotalNs),
	}
}

func (c runtimeCounters) sub(b runtimeCounters) runtimeCounters {
	return runtimeCounters{c.allocs - b.allocs, c.bytes - b.bytes, c.gcCycles - b.gcCycles, c.pause - b.pause}
}

func (c runtimeCounters) add(b runtimeCounters) runtimeCounters {
	return runtimeCounters{c.allocs + b.allocs, c.bytes + b.bytes, c.gcCycles + b.gcCycles, c.pause + b.pause}
}

// setRuntime reports a phase's runtime/metrics deltas per record.
func (o *outcome) setRuntime(d runtimeCounters, records int64) {
	o.set("runtime.allocs_per_record", float64(d.allocs)/float64(records))
	o.set("runtime.bytes_per_record", float64(d.bytes)/float64(records))
	o.set("runtime.gc_cycles", float64(d.gcCycles))
	o.set("runtime.gc_pause_ms", float64(d.pause)/1e6)
}

func perRecord(d time.Duration, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(n)
}
