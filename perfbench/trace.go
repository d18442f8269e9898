package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code. Spans of one record share rec; spans of a Feed that closed a
// sampling tick share tick.
type span struct {
	name       string
	start, end int64 // ns since the tracer's origin
	parent     int32 // index of the enclosing span, -1 for a root
	rec, tick  int64 // -1 when the span is not about one record or tick
}

// tracer keeps every span and counter reading in memory; write puts
// them on disk once the run is over, so tracing does no I/O while it
// measures.
type tracer struct {
	origin   time.Time
	spans    []span
	counters []counterReading
	children []int64 // per span, the time its direct children cover; built once the trace is complete
}

// counterReading is the program's counters read at a span boundary.
type counterReading struct {
	at     int64 // ns since origin
	span   int32
	values map[string]float64
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// ns converts a wall-clock instant to the tracer's time base.
func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.origin)) }

// add records a finished span and returns its index.
func (t *tracer) add(name string, parent int32, start, end time.Time, rec, tick int64) int32 {
	t.spans = append(t.spans, span{name, t.ns(start), t.ns(end), parent, rec, tick})
	return int32(len(t.spans) - 1)
}

// open starts a span whose end is filled in by close.
func (t *tracer) open(name string, parent int32) int32 {
	return t.add(name, parent, time.Now(), time.Time{}, -1, -1)
}

func (t *tracer) close(i int32) { t.spans[i].end = t.ns(time.Now()) }

func (t *tracer) count(span int32, values map[string]float64) {
	t.counters = append(t.counters, counterReading{t.ns(time.Now()), span, values})
}

func (t *tracer) dur(i int32) time.Duration { return time.Duration(t.spans[i].end - t.spans[i].start) }

// total sums the durations of the spans with the given name.
func (t *tracer) total(name string) time.Duration {
	var d int64
	for _, s := range t.spans {
		if s.name == name {
			d += s.end - s.start
		}
	}
	return time.Duration(d)
}

// selfOf is span i's duration minus the part its direct children
// cover.
func (t *tracer) selfOf(i int32) time.Duration {
	if t.children == nil {
		t.children = make([]int64, len(t.spans))
		for _, s := range t.spans {
			if s.parent >= 0 {
				t.children[s.parent] += s.end - s.start
			}
		}
	}
	return t.dur(i) - time.Duration(t.children[i])
}

// write saves the spans and counter readings as gzip-compressed CSV.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".csv.gz")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "kind,index,name,start_ns,end_ns,parent,record,tick")
	for i, s := range t.spans {
		fmt.Fprintf(bw, "span,%d,%s,%d,%d,%d,%d,%d\n", i, s.name, s.start, s.end, s.parent, s.rec, s.tick)
	}
	for _, c := range t.counters {
		for k, v := range c.values {
			fmt.Fprintf(bw, "counter,%d,%s,%d,%d,%d,%g,-1\n", c.span, k, c.at, c.at, c.span, v)
		}
	}
	if err := bw.Flush(); err != nil {
		return "", err
	}
	if err := zw.Close(); err != nil {
		return "", err
	}
	return path, f.Close()
}

// ledgerTolerance is how far the layer sums may miss the time they must
// add up to, as a share of it.
const ledgerTolerance = 0.02
