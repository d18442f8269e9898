// Command perfbench is the repository's benchmark: it runs one workload
// against the public serving and training calls (ingest.SegDir.Next,
// Monitor.Feed/Refresh/Snapshot, Model.ResumeMonitor,
// fleet.Coordinator.Feed/Close, elsa.Train, Model.Predict, elsa.Evaluate),
// checks that the outputs are correct, and prints the metrics named in
// BENCHMARK.json as the last line of standard output.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload serve-bgl --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer ledger, measured on a separate
// traced pass, and the span trace is written under the output
// directory. METRICS.md in this directory lists every metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// run is everything one workload needs from the command line.
type run struct {
	seed    int64
	seconds time.Duration
	trace   bool
	work    string // scratch directory, removed at exit
	traces  string // where traced runs leave their span files
	name    string
}

// deadline is when the measured phase that starts now must stop.
func (r *run) deadline() time.Time { return time.Now().Add(r.seconds) }

// outcome is what a workload hands back: its metric values by name, the
// attempted and failed operation counts, and the correctness verdict.
type outcome struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	gates     []gate
}

// gate is one correctness check and its verdict.
type gate struct {
	name string
	ok   bool
	info string
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]float64)} }

func (o *outcome) set(name string, v float64) { o.metrics[name] = v }

// bypassed records the layers a workload does not run: their counters
// and times are zero by construction, not by omission.
func (o *outcome) bypassed(names ...string) {
	for _, n := range names {
		if _, ok := o.metrics[n]; !ok {
			o.metrics[n] = 0
		}
	}
}

func (o *outcome) check(name string, ok bool, format string, args ...any) {
	o.gates = append(o.gates, gate{name: name, ok: ok, info: fmt.Sprintf(format, args...)})
}

func (o *outcome) correct() bool {
	for _, g := range o.gates {
		if !g.ok {
			return false
		}
	}
	return len(o.gates) > 0
}

// workloads maps each BENCHMARK.json workload name to its driver.
var workloads = map[string]func(*run) (*outcome, error){
	"serve-bgl":   serveBGL,
	"live-bgl200": liveBGL200,
	"fleet-bgl":   fleetBGL,
	"offline-bgl": offlineBGL,
}

// spec is the slice of BENCHMARK.json the program needs: the metric
// names and units it must print.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func main() {
	if err := mainErr(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "workload to run (see BENCHMARK.json)")
		seed     = fs.Int64("seed", 42, "input seed; the same seed gives the same inputs")
		seconds  = fs.Int("seconds", 10, "length of the measured phase")
		trace    = fs.Int("trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end measurement")
		specPath = fs.String("spec", "BENCHMARK.json", "benchmark definition listing the metrics to print")
		out      = fs.String("out", ".bench_build", "directory for scratch data and traces")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	drive, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	var sp spec
	data, err := os.ReadFile(*specPath)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, &sp); err != nil {
		return fmt.Errorf("%s: %w", *specPath, err)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(*out, "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	r := &run{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		work:    work,
		traces:  filepath.Join(*out, "traces"),
		name:    *workload,
	}
	o, err := drive(r)
	if err != nil {
		return err
	}
	o.set("max_rss_mb", maxRSSMB())

	want := sp.EndToEnd
	if r.trace {
		want = sp.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.correct(), o.attempted, o.failed, make(map[string]value)}
	var missing []string
	for _, m := range want {
		v, ok := o.metrics[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, m.Name)
			continue
		}
		res.Metrics[m.Name] = value{v, m.Unit}
		fmt.Printf("%-36s %16.6g %s\n", m.Name, v, m.Unit)
	}
	if len(missing) > 0 {
		return fmt.Errorf("workload %s measured no value for %v", r.name, missing)
	}
	for _, g := range o.gates {
		verdict := "ok"
		if !g.ok {
			verdict = "FAILED"
		}
		fmt.Printf("gate %-28s %-6s %s\n", g.name, verdict, g.info)
	}
	if res.Attempted < 1 {
		return errors.New("no operation attempted")
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errors.New("correctness gate failed")
	}
	return nil
}

// maxRSSMB is the process's peak resident set, in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// setupRuns is how many times each workload repeats its set-up; setup_s
// is their median, so one slow repetition does not move it.
const setupRuns = 3

// repeatSetup runs build setupRuns times, keeps the last product, and
// records the median wall time of a repetition as setup_s.
func repeatSetup[T any](o *outcome, build func(rep int) (T, error)) (T, error) {
	var (
		last  T
		walls []float64
	)
	for rep := 0; rep < setupRuns; rep++ {
		var zero T
		last = zero // one product alive at a time, so the peak RSS is one set-up's
		runtime.GC()
		t0 := time.Now()
		v, err := build(rep)
		if err != nil {
			return last, err
		}
		walls = append(walls, time.Since(t0).Seconds())
		last = v
	}
	runtime.GC() // start the measurement from a collected heap
	o.set("setup_s", median(walls))
	return last, nil
}

// median of a small sample; the input is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
