// Package benchsuite hosts the benchmark bodies behind both `go test
// -bench` (thin wrappers in the repo root and internal/sim) and the
// cmd/bench driver, which replays them through testing.Benchmark and
// writes the machine-readable BENCH_*.json regression baseline. Keeping
// the bodies in one importable package guarantees the JSON numbers and
// the -bench numbers come from identical code.
package benchsuite

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"nmppak/internal/cpumodel"
	"nmppak/internal/experiments"
	"nmppak/internal/fault"
	"nmppak/internal/gpumodel"
	"nmppak/internal/kmer"
	"nmppak/internal/nmp"
	"nmppak/internal/scaleout"
	"nmppak/internal/sim"
	"nmppak/internal/telemetry"
	"nmppak/internal/tenancy"
	"nmppak/internal/topo"
	"nmppak/internal/trace"
)

// Case is one named benchmark.
type Case struct {
	Name string
	F    func(b *testing.B)
}

var (
	once sync.Once
	ctx  *experiments.Context
	tr   *trace.Trace
)

// setup builds the shared quick-workload context and trace once; the
// preparation cost is excluded from every benchmark body via ResetTimer.
func setup() (*experiments.Context, *trace.Trace) {
	once.Do(func() {
		c, err := experiments.NewContext(experiments.QuickWorkload())
		if err != nil {
			panic(err)
		}
		t, err := c.Trace()
		if err != nil {
			panic(err)
		}
		ctx, tr = c, t
	})
	return ctx, tr
}

// Run executes the named case on b; unknown names fail the benchmark.
func Run(b *testing.B, name string) {
	for _, c := range Suite() {
		if c.Name == name {
			c.F(b)
			return
		}
	}
	b.Fatalf("benchsuite: unknown case %q", name)
}

// Suite returns every benchmark in stable order: one per paper artifact
// (matching the Benchmark* wrappers in bench_test.go) plus the hot-path
// microbenchmarks the perf work is judged against.
func Suite() []Case {
	return []Case{
		{"Fig5Breakdown", benchFig5Breakdown},
		{"Fig6StallModel", benchFig6StallModel},
		{"Fig7SizeDistribution", benchFig7SizeDistribution},
		{"Fig8OversizeProportion", benchFig8OversizeProportion},
		{"Table1BatchSweep", benchTable1BatchSweep},
		{"Fig12NMP", benchFig12NMP},
		{"Fig12GPU", benchFig12GPU},
		{"Fig13Utilization", benchFig13Utilization},
		{"Fig14Traffic", benchFig14Traffic},
		{"Fig15PESweep", benchFig15PESweep},
		{"Table3AreaPower", benchTable3AreaPower},
		{"CommSplit", benchCommSplit},
		{"Footprint", benchFootprint},
		{"AblationStaticMapping", benchAblationStaticMapping},
		{"AblationNoHybrid", benchAblationNoHybrid},
		{"EventKernel", EventKernel},
		{"KmerCount", benchKmerCount},
		{"RadixSort1M", benchRadixSort1M},
		{"ScaleOut8xBSP", benchScaleOut8xBSP},
		{"ScaleOut8xOverlap", benchScaleOut8xOverlap},
		{"ScaleOut8xTorus", benchScaleOut8xTorus},
		{"ScaleOut8xDragonfly", benchScaleOut8xDragonfly},
		{"ScaleOut64xMeshParallel", benchScaleOut64xMeshParallel},
		{"ScaleOut64xTorusParallel", benchScaleOut64xTorusParallel},
		{"ScaleOut64xDragonflyParallel", benchScaleOut64xDragonflyParallel},
		{"ScaleOut64xBSPParallel", benchScaleOut64xBSPParallel},
		{"ScaleOut64xRebalanceParallel", benchScaleOut64xRebalanceParallel},
		{"ScaleOut64xElasticParallel", benchScaleOut64xElasticParallel},
		{"TenancyFleet", benchTenancyFleet},
	}
}

func benchFig5Breakdown(b *testing.B) {
	c, _ := setup()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5(c); err != nil {
			b.Fatal(err)
		}
	}
}

func benchFig6StallModel(b *testing.B) {
	_, t := setup()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cpumodel.Simulate(t, cpumodel.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func benchFig7SizeDistribution(b *testing.B) {
	c, _ := setup()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7(c); err != nil {
			b.Fatal(err)
		}
	}
}

func benchFig8OversizeProportion(b *testing.B) {
	c, _ := setup()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8(c); err != nil {
			b.Fatal(err)
		}
	}
}

func benchTable1BatchSweep(b *testing.B) {
	c, _ := setup()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Assemble(10, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func benchFig12NMP(b *testing.B) {
	_, t := setup()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nmp.Simulate(t, nmp.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func benchFig12GPU(b *testing.B) {
	_, t := setup()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gpumodel.Simulate(t, gpumodel.A100_40GB()); err != nil {
			b.Fatal(err)
		}
	}
}

func benchFig13Utilization(b *testing.B) {
	_, t := setup()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := nmp.Simulate(t, nmp.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if res.Utilization <= 0 {
			b.Fatal("no utilization")
		}
	}
}

func benchFig14Traffic(b *testing.B) {
	c, t := setup()
	runs := &experiments.SystemRuns{}
	var err error
	runs.CPUBaseline, err = cpumodel.Simulate(t, cpumodel.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig14(c, runs); err != nil {
			b.Fatal(err)
		}
	}
}

func benchFig15PESweep(b *testing.B) {
	_, t := setup()
	cfg := nmp.DefaultConfig()
	cfg.PEsPerChannel = 16
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nmp.Simulate(t, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func benchTable3AreaPower(b *testing.B) {
	c, _ := setup()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table3(c); err != nil {
			b.Fatal(err)
		}
	}
}

func benchCommSplit(b *testing.B) {
	_, t := setup()
	cfg := nmp.DefaultConfig()
	cfg.PEsPerChannel = 16
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := nmp.Simulate(t, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.TNInterDIMM == 0 {
			b.Fatal("no routing")
		}
	}
}

func benchFootprint(b *testing.B) {
	c, _ := setup()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Footprint(c); err != nil {
			b.Fatal(err)
		}
	}
}

func benchAblationStaticMapping(b *testing.B) {
	_, t := setup()
	cfg := nmp.DefaultConfig()
	cfg.StaticMapping = true
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nmp.Simulate(t, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func benchAblationNoHybrid(b *testing.B) {
	_, t := setup()
	cfg := nmp.DefaultConfig()
	cfg.HybridThresholdBytes = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nmp.Simulate(t, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// EventKernel is the perf baseline for scheduler work: a self-refilling
// event population (as the hardware models produce) with a scattered
// timestamp pattern, exercising heap push/pop and the FIFO tie-break. It
// is exported so internal/sim's benchmark wrapper shares the body.
func EventKernel(b *testing.B) {
	const window = 512
	b.ReportAllocs()
	for b.Loop() {
		var e sim.Engine
		n := 0
		var spawn func()
		spawn = func() {
			n++
			if n >= 100_000 {
				return
			}
			// Two children at pseudo-random offsets keep the heap near
			// the window size without shrinking to a trivial population.
			if n%2 == 0 {
				e.After(sim.Cycle(n*7919%window)+1, spawn)
			}
			e.After(sim.Cycle(n*104729%window)+1, spawn)
		}
		e.At(0, spawn)
		e.Run()
	}
}

func benchKmerCount(b *testing.B) {
	c, _ := setup()
	cfg := kmer.Config{K: c.W.K, Workers: c.W.Workers, MinCount: c.W.MinCount}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kmer.Count(c.Reads, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// benchScaleOut8x measures the full 8-node distributed pipeline —
// sharded counting, shard-graph construction, and the compaction replay
// on the event-driven runtime — under the given replay discipline and
// interconnect topology, reporting the communication fraction and total
// simulated cycles of the modeled machine alongside the wall-clock cost
// of simulating it.
func benchScaleOut8x(b *testing.B, overlap bool, tc topo.Config) {
	c, t := setup()
	cfg := scaleout.DefaultConfig(8)
	cfg.K = c.W.K
	cfg.MinCount = c.W.MinCount
	cfg.Workers = c.W.Workers
	cfg.Overlap = overlap
	cfg.Topo = tc
	b.ReportAllocs()
	b.ResetTimer()
	var last *scaleout.Result
	for i := 0; i < b.N; i++ {
		res, err := scaleout.Simulate(c.Reads, t, cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.CommFraction, "comm_frac")
	b.ReportMetric(float64(last.TotalCycles), "model_cycles")

	// Cross-check the reported comm_frac against the telemetry layer's
	// independent accounting: re-run once instrumented (off the clock)
	// and require the span-derived communication fraction to agree with
	// the runtime's own to float precision. A drift here means the
	// instrumentation no longer covers every communication cycle and the
	// published metric can't be trusted.
	b.StopTimer()
	icfg := cfg
	icfg.Telemetry = telemetry.New()
	ires, err := scaleout.Simulate(c.Reads, t, icfg)
	if err != nil {
		b.Fatal(err)
	}
	u := telemetry.Analyze(icfg.Telemetry)
	if d := math.Abs(u.CommFraction - ires.CommFraction); d > 1e-9 {
		b.Fatalf("telemetry comm fraction %.12f does not reconcile with runtime %.12f (|d|=%g)",
			u.CommFraction, ires.CommFraction, d)
	}
	if ires.TotalCycles != last.TotalCycles {
		b.Fatalf("instrumented run changed the model: %d cycles vs. %d uninstrumented",
			ires.TotalCycles, last.TotalCycles)
	}
	b.StartTimer()
}

// benchTenancyFleet times one multi-tenant fleet simulation: six jobs
// (two of them wide) time-sharing an 8-node fleet under fair-share
// checkpoint preemption. The per-demand iteration-0 seed blobs are built
// once off the clock — exactly how the experiments load sweep memoizes
// identical-shape jobs — so the timed body is the fleet scheduler plus
// the sliced runs themselves.
func benchTenancyFleet(b *testing.B) {
	c, t := setup()
	mkcfg := func(n int) scaleout.Config {
		cfg := scaleout.DefaultConfig(n)
		cfg.K = c.W.K
		cfg.MinCount = c.W.MinCount
		cfg.Workers = c.W.Workers
		return cfg
	}
	seeds := map[int][]byte{}
	for _, n := range []int{2, 6} {
		blob, err := scaleout.Checkpoint(c.Reads, t, mkcfg(n), 0)
		if err != nil {
			b.Fatal(err)
		}
		seeds[n] = blob
	}
	demands := []int{2, 6, 2, 2, 6, 2}
	jobs := make([]tenancy.Job, len(demands))
	for i, d := range demands {
		jobs[i] = tenancy.Job{
			Name:    fmt.Sprintf("j%d-n%d", i, d),
			Arrival: sim.Cycle(i * 50_000),
			Trace:   t,
			Config:  mkcfg(d),
			Seed:    seeds[d],
		}
	}
	f := tenancy.Fleet{Nodes: 8, Policy: tenancy.FairShare{}, Quantum: 1 << 18}
	b.ReportAllocs()
	b.ResetTimer()
	var last *tenancy.Schedule
	for i := 0; i < b.N; i++ {
		sched, err := f.Run(jobs)
		if err != nil {
			b.Fatal(err)
		}
		last = sched
	}
	b.ReportMetric(float64(last.Preemptions), "preemptions")
	b.ReportMetric(last.Utilization, "fleet_util")
	b.ReportMetric(float64(last.Makespan), "makespan_cycles")
}

func benchScaleOut8xBSP(b *testing.B) { benchScaleOut8x(b, false, topo.Default()) }

func benchScaleOut8xOverlap(b *testing.B) { benchScaleOut8x(b, true, topo.Default()) }

func benchScaleOut8xTorus(b *testing.B) { benchScaleOut8x(b, false, topo.Torus(0, 0)) }

func benchScaleOut8xDragonfly(b *testing.B) { benchScaleOut8x(b, false, topo.DragonflyGroups(0)) }

// measureParallel64 is the shared body of the 64-node parallel
// benchmarks. A Workers=1 run — the sequential scheduler, regardless of
// GOMAXPROCS — is timed off the benchmark clock as the anchor; the timed
// loop runs with Workers=0 (one worker per GOMAXPROCS thread) and the
// ratio is published as speedup_vs_serial, alongside an off-clock
// fixed-width sweep (speedup_w2, speedup_w4) showing how the pre-steps
// scale with the pool. Cycle-exactness is part of the bench contract:
// every parallel result must be identical to the anchor or the benchmark
// fails. The ratios are only meaningful when GOMAXPROCS is backed by real
// cores; on a single-core host (par.Threads(0)==1) both runs pre-step
// serially and they hover near 1.
func measureParallel64(b *testing.B, cfg scaleout.Config) {
	c, t := setup()
	scfg := cfg
	scfg.Workers = 1
	start := time.Now()
	want, err := scaleout.Simulate(c.Reads, t, scfg)
	if err != nil {
		b.Fatal(err)
	}
	serial := time.Since(start)

	wcfg := cfg
	wcfg.Workers = 0
	b.ReportAllocs()
	b.ResetTimer()
	var last *scaleout.Result
	for i := 0; i < b.N; i++ {
		res, err := scaleout.Simulate(c.Reads, t, wcfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.StopTimer()
	if !reflect.DeepEqual(last, want) {
		b.Fatal("parallel result diverges from the serial anchor")
	}
	per := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(float64(serial.Nanoseconds())/per, "speedup_vs_serial")
	b.ReportMetric(float64(last.TotalCycles), "model_cycles")

	// Fixed-width sweep, one off-clock shot per pool size. Reported after
	// the timed section — ResetTimer clears earlier extra metrics.
	for _, w := range []int{2, 4} {
		wcfg.Workers = w
		ws := time.Now()
		res, err := scaleout.Simulate(c.Reads, t, wcfg)
		if err != nil {
			b.Fatal(err)
		}
		if !reflect.DeepEqual(res, want) {
			b.Fatalf("Workers=%d result diverges from the serial anchor", w)
		}
		b.ReportMetric(float64(serial.Nanoseconds())/float64(time.Since(ws).Nanoseconds()),
			fmt.Sprintf("speedup_w%d", w))
	}
}

// scale64Config is the shared 64-node scale-out configuration of the
// parallel benchmark family.
func scale64Config(tc topo.Config, overlap bool) scaleout.Config {
	c, _ := setup()
	cfg := scaleout.DefaultConfig(64)
	cfg.K = c.W.K
	cfg.MinCount = c.W.MinCount
	cfg.Overlap = overlap
	cfg.Topo = tc
	return cfg
}

func benchScaleOut64xParallel(b *testing.B, tc topo.Config) {
	measureParallel64(b, scale64Config(tc, true))
}

func benchScaleOut64xMeshParallel(b *testing.B) { benchScaleOut64xParallel(b, topo.Default()) }

func benchScaleOut64xTorusParallel(b *testing.B) { benchScaleOut64xParallel(b, topo.Torus(0, 0)) }

func benchScaleOut64xDragonflyParallel(b *testing.B) {
	benchScaleOut64xParallel(b, topo.DragonflyGroups(0))
}

// benchScaleOut64xBSPParallel: the BSP loop — whole stretches pre-stepped
// on the pool, supersteps priced serially — on the 64-node machine.
func benchScaleOut64xBSPParallel(b *testing.B) {
	measureParallel64(b, scale64Config(topo.Default(), false))
}

// benchScaleOut64xRebalanceParallel: the rebalancing runtime (every
// migration decision ends a pre-stepped stretch) on the worker pool.
func benchScaleOut64xRebalanceParallel(b *testing.B) {
	cfg := scale64Config(topo.Default(), false)
	cfg.Partitioner = scaleout.NewRebalancePartitioner(12, 1)
	measureParallel64(b, cfg)
}

// benchScaleOut64xElasticParallel: the elastic overlapped runtime —
// periodic captures plus a mid-phase node loss and its recovery — under
// the parallel scheduler. The fault cycle comes from an off-clock
// fault-free run of the same machine.
func benchScaleOut64xElasticParallel(b *testing.B) {
	c, t := setup()
	cfg := scale64Config(topo.Default(), true)
	cfg.CheckpointEvery = 2
	golden, err := scaleout.Simulate(c.Reads, t, cfg)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Faults = fault.NodeLossAt(32, sim.Cycle(float64(golden.Compact.Total())/2), 500)
	measureParallel64(b, cfg)
}

func benchRadixSort1M(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	src := make([]uint64, 1<<20)
	for i := range src {
		src[i] = r.Uint64()
	}
	v := make([]uint64, len(src))
	b.SetBytes(8 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(v, src)
		kmer.ParallelSortUint64(v, 0)
	}
}
