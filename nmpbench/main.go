// Command nmpbench is the repository's benchmark. It generates its inputs
// from --seed, runs one workload for --seconds, checks every op's output
// against a reference built in set-up, and prints one JSON result as its
// last line of standard output: the end-to-end metrics with --trace 0,
// the per-layer metrics of a traced run with --trace 1. BENCHMARK.json in
// the repository root describes the workloads and metrics.
//
// Run it from the repository root with
//
//	bash nmpbench/run.sh --workload scaleout-64 --seed 1 --seconds 30 --trace 0
//
// --record FILE appends the stamped result to FILE as one JSON line, and
// --compare BASE NEW prints the per-metric medians of two such files.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// setupRuns is how many times a run sets up; setup_s is their median.
const setupRuns = 5

// minOps is the fewest ops a timed loop runs, however short --seconds is.
const minOps = 3

// spanDir is where a traced run writes its spans, under the directory it
// runs in.
const spanDir = ".bench_build/spans"

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// stamp identifies the host and inputs a result was measured with.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
}

// record is a stamped result, as --record writes it.
type record struct {
	stamp
	Result result `json:"result"`
}

func main() {
	name := flag.String("workload", "", "workload to run: paper-1node, scaleout-64 or fleet-preempt")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Float64("seconds", 10, "how long the timed loop runs")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end loop")
	recordTo := flag.String("record", "", "append the stamped result to this file as a JSON line")
	compare := flag.Bool("compare", false, "compare the records of the two files given as arguments")
	flag.Parse()
	if err := mainErr(*name, *seed, *seconds, *traced, *recordTo, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "nmpbench:", err)
		os.Exit(1)
	}
}

func mainErr(name string, seed int64, seconds float64, traced int, recordTo string, compare bool, args []string) error {
	if compare {
		if len(args) != 2 {
			return errors.New("--compare takes two record files")
		}
		return compareFiles(os.Stdout, args[0], args[1])
	}
	if traced != 0 && traced != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", traced)
	}
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	// GOMAXPROCS is pinned to the core count so that no workload runs more
	// threads than there are cores.
	runtime.GOMAXPROCS(runtime.NumCPU())
	st := stamp{
		Workload: name, Seed: seed, Trace: traced == 1,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
	}
	head, _ := json.Marshal(st)
	fmt.Printf("stamp %s\n", head)

	d := time.Duration(seconds * float64(time.Second))
	var res result
	if traced == 1 {
		t := newTracer()
		res, err = runTraced(w, seed, fullScale, d, t, os.Stdout)
		if err == nil {
			err = writeSpans(t, fmt.Sprintf("%s-seed%d.json", name, seed))
		}
	} else {
		res, err = runE2E(w, seed, fullScale, d)
	}
	if err != nil {
		return err
	}
	if recordTo != "" {
		if err := appendRecord(recordTo, record{st, res}); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// setupMedian sets w up setupRuns times, untraced, and returns the last
// job and the median set-up seconds. Every set-up must build the same
// reference.
func setupMedian(w workload, seed int64, sc scale) (*job, float64, error) {
	var j *job
	secs := make([]float64, 0, setupRuns)
	for i := 0; i < setupRuns; i++ {
		t0 := time.Now()
		next, err := w.setup(seed, sc, nil)
		if err != nil {
			return nil, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if j != nil && !matches(next.ref, j.ref) {
			return nil, 0, fmt.Errorf("%s: set-up %d built a different reference from the first", w.name, i)
		}
		j = next
	}
	return j, median(secs), nil
}

// matches reports whether an op's output equals the reference.
func matches(out, ref output) bool {
	return out.cycles == ref.cycles && reflect.DeepEqual(out.value, ref.value)
}

// loopStats is what the timed loop measured.
type loopStats struct {
	attempted, failed int
	opSecs            []float64
	allocBytes        uint64
}

// timeOps runs j's op, untraced, until d has passed and at least minOps
// ops ran. An op fails if it returns an error or its output differs from
// the reference.
func timeOps(j *job, d time.Duration) loopStats {
	var s loopStats
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	start := time.Now()
	for s.attempted < minOps || time.Since(start) < d {
		t0 := time.Now()
		out, err := j.op(nil)
		s.opSecs = append(s.opSecs, time.Since(t0).Seconds())
		s.attempted++
		if err != nil || !matches(out, j.ref) {
			s.failed++
		}
	}
	runtime.ReadMemStats(&ms)
	s.allocBytes = ms.TotalAlloc - alloc0
	return s
}

// runE2E is the untraced run: set-up, then the timed loop.
func runE2E(w workload, seed int64, sc scale, d time.Duration) (result, error) {
	j, setupS, err := setupMedian(w, seed, sc)
	if err != nil {
		return result{}, err
	}
	s := timeOps(j, d)
	var busy float64
	for _, x := range s.opSecs {
		busy += x
	}
	m := map[string]value{
		"setup_s":         {setupS, "s"},
		"ops_per_s":       {float64(s.attempted-s.failed) / busy, "1/s"},
		"op_s_p50":        {median(s.opSecs), "s"},
		"alloc_mb_per_op": {float64(s.allocBytes) / 1e6 / float64(s.attempted), "MB"},
		"peak_rss_mb":     {peakRSSMB(), "MB"},
		"model_cycles":    {float64(j.ref.cycles), "cycles"},
	}
	return result{Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed, Metrics: m}, nil
}

// runTraced sets w up once, then repeats the per-layer profile until d
// has passed, and reports the median of each per-layer metric. It prints
// the span table and the scale-out breakdown to out.
func runTraced(w workload, seed int64, sc scale, d time.Duration, t *tracer, out io.Writer) (result, error) {
	id := t.begin("setup:" + w.name)
	j, err := w.setup(seed, sc, t)
	t.end(id)
	if err != nil {
		return result{}, err
	}
	from := len(t.spans)
	samples := map[string][]float64{}
	res := result{Metrics: map[string]value{}}
	start := time.Now()
	for res.Attempted < 1 || time.Since(start) < d {
		res.Attempted++
		m, err := profile(j, sc, t)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nmpbench: profile pass %d: %v\n", res.Attempted, err)
			res.Failed++
			continue
		}
		for k, v := range m {
			samples[k] = append(samples[k], v)
		}
	}
	if res.Failed == res.Attempted {
		return result{}, errors.New("every profile pass failed")
	}
	m := map[string]float64{}
	for k, v := range samples {
		m[k] = median(v)
	}
	derivePricing(m)
	for _, def := range layerMetrics {
		v, ok := m[def.name]
		if !ok {
			return result{}, fmt.Errorf("the profile did not measure %s", def.name)
		}
		res.Metrics[def.name] = value{v, def.unit}
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(out, "per-layer wall time over %d profile pass(es):\n", res.Attempted)
	t.table(out, from)
	printBreakdown(out, m)
	return res, nil
}

// writeSpans writes the traced run's spans under spanDir.
func writeSpans(t *tracer, file string) error {
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(spanDir, file))
	if err != nil {
		return err
	}
	if err := t.write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB is the process's maximum resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
