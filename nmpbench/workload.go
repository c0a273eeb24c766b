package main

import (
	"fmt"

	"nmppak/internal/assemble"
	"nmppak/internal/compact"
	"nmppak/internal/experiments"
	"nmppak/internal/kmer"
	"nmppak/internal/metrics"
	"nmppak/internal/nmp"
	"nmppak/internal/pakgraph"
	"nmppak/internal/scaleout"
	"nmppak/internal/sim"
	"nmppak/internal/tenancy"
	"nmppak/internal/topo"
	"nmppak/internal/trace"
)

// scale sizes the generated inputs and the fleet quantum. The benchmark
// runs fullScale; the tests run the same code paths on a tiny scale.
type scale struct {
	GenomeLen int
	Coverage  float64
	Quantum   sim.Cycle
}

// fullScale is the experiments package's quick workload (60 kb genome at
// 20x coverage) with the fleet quantum of the TenancyFleet bench.
var fullScale = scale{GenomeLen: 60_000, Coverage: 20, Quantum: 1 << 18}

// output is what one op produced: the value that must equal the
// reference, and the simulated cycles it reports as model_cycles.
type output struct {
	value  any
	cycles int64
}

// job is a workload after set-up: the seeded inputs, the op the timed
// loop repeats, and the reference output every op must reproduce.
type job struct {
	w   experiments.Workload
	ctx *experiments.Context
	op  func(t *tracer) (output, error)
	ref output
}

// workload is one named benchmark workload. Why each exists is recorded
// in BENCHMARK.json.
type workload struct {
	name  string
	setup func(seed int64, sc scale, t *tracer) (*job, error)
}

var workloads = []workload{
	{"paper-1node", setupPaper},
	{"scaleout-64", setupScaleout},
	{"fleet-preempt", setupFleet},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// generate makes the seeded genome and reads. Workers is 0 everywhere, so
// every parallel stage runs GOMAXPROCS threads.
func generate(seed int64, sc scale, t *tracer) (*job, error) {
	w := experiments.QuickWorkload()
	w.GenomeLen, w.Coverage, w.Seed, w.Workers = sc.GenomeLen, sc.Coverage, seed, 0
	defer t.end(t.begin("experiments.NewContext"))
	ctx, err := experiments.NewContext(w)
	if err != nil {
		return nil, err
	}
	return &job{w: w, ctx: ctx}, nil
}

// captured is the single-node front half: counting, graph build and the
// compaction pass that records the trace.
type captured struct {
	kres  *kmer.Result
	nodes int
	tr    *trace.Trace
}

// capture mirrors experiments.Context.Trace, one span per call: the
// compaction stops at nodes/100 as in the paper's performance studies.
func capture(j *job, t *tracer) (*captured, error) {
	id := t.begin("kmer.Count")
	kres, err := kmer.Count(j.ctx.Reads, kmer.Config{K: j.w.K, Workers: j.w.Workers, MinCount: j.w.MinCount})
	t.end(id)
	if err != nil {
		return nil, err
	}
	id = t.begin("pakgraph.Build")
	g, err := pakgraph.Build(kres)
	t.end(id)
	if err != nil {
		return nil, err
	}
	nodes := g.Len()
	b := trace.NewBuilder(j.w.K)
	id = t.begin("compact.Run")
	_, err = compact.Run(g, compact.Options{Workers: j.w.Workers, Observer: b, Threshold: max(nodes/100, 1)})
	t.end(id)
	if err != nil {
		return nil, err
	}
	return &captured{kres: kres, nodes: nodes, tr: b.Trace()}, nil
}

// paperRun is one pass of the paper's single-node flow.
type paperRun struct {
	*captured
	nmp *nmp.Result
	asm *assemble.Output
}

// paperOut is the part of a paperRun that must repeat exactly.
type paperOut struct {
	NMP     *nmp.Result
	Summary metrics.Summary
}

func (r *paperRun) output() output {
	return output{value: paperOut{r.nmp, r.asm.Summary}, cycles: int64(r.nmp.Cycles)}
}

func runPaper(j *job, t *tracer) (*paperRun, error) {
	c, err := capture(j, t)
	if err != nil {
		return nil, err
	}
	id := t.begin("nmp.Simulate")
	res, err := nmp.Simulate(c.tr, nmp.DefaultConfig())
	t.end(id)
	if err != nil {
		return nil, err
	}
	id = t.begin("assemble.Run")
	asm, err := assemble.Run(j.ctx.Reads, assemble.Config{
		K: j.w.K, Workers: j.w.Workers, MinCount: j.w.MinCount, Batches: 10,
	})
	t.end(id)
	if err != nil {
		return nil, err
	}
	return &paperRun{captured: c, nmp: res, asm: asm}, nil
}

// setupPaper: one op is the whole single-node flow over the seeded reads.
// The first run is the reference.
func setupPaper(seed int64, sc scale, t *tracer) (*job, error) {
	j, err := generate(seed, sc, t)
	if err != nil {
		return nil, err
	}
	r, err := runPaper(j, t)
	if err != nil {
		return nil, err
	}
	if n := len(r.tr.Iterations); n < 2 {
		return nil, fmt.Errorf("paper-1node: trace capture made %d compaction iteration(s), want more than one", n)
	}
	j.ref = r.output()
	j.op = func(t *tracer) (output, error) {
		r, err := runPaper(j, t)
		if err != nil {
			return output{}, err
		}
		return r.output(), nil
	}
	return j, nil
}

// scaleoutConfig is the 64-node machine on the 8x8 torus.
func scaleoutConfig(w experiments.Workload, workers int, overlap bool) scaleout.Config {
	cfg := scaleout.DefaultConfig(64)
	cfg.K, cfg.MinCount, cfg.Workers, cfg.Overlap = w.K, w.MinCount, workers, overlap
	cfg.Topo = topo.Torus(0, 0)
	return cfg
}

// simulateName names the span of one scaleout.Simulate call.
func simulateName(overlap bool, workers int) string {
	d := "bsp"
	if overlap {
		d = "overlap"
	}
	return fmt.Sprintf("scaleout.Simulate[%s,workers=%d]", d, workers)
}

// simulatePair runs the 64-node machine BSP, then overlapped.
func simulatePair(j *job, tr *trace.Trace, workers int, t *tracer) ([2]*scaleout.Result, error) {
	var out [2]*scaleout.Result
	for i, overlap := range []bool{false, true} {
		id := t.begin(simulateName(overlap, workers))
		res, err := scaleout.Simulate(j.ctx.Reads, tr, scaleoutConfig(j.w, workers, overlap))
		t.end(id)
		if err != nil {
			return out, err
		}
		out[i] = res
	}
	return out, nil
}

func pairOutput(p [2]*scaleout.Result) output {
	return output{value: p, cycles: int64(p[0].TotalCycles + p[1].TotalCycles)}
}

// commFrac is the communication share of both disciplines' cycles.
func commFrac(p [2]*scaleout.Result) float64 {
	return float64(p[0].CommCycles+p[1].CommCycles) / float64(p[0].TotalCycles+p[1].TotalCycles)
}

// setupScaleout captures the trace once; one op is the 64-node Simulate
// at Workers=0, BSP then overlapped. The reference is the Workers=1 run.
func setupScaleout(seed int64, sc scale, t *tracer) (*job, error) {
	j, err := generate(seed, sc, t)
	if err != nil {
		return nil, err
	}
	c, err := capture(j, t)
	if err != nil {
		return nil, err
	}
	ref, err := simulatePair(j, c.tr, 1, t)
	if err != nil {
		return nil, err
	}
	for _, r := range ref {
		if r.CommFraction <= 0 {
			return nil, fmt.Errorf("scaleout-64: comm_frac is %g, want > 0", r.CommFraction)
		}
	}
	j.ref = pairOutput(ref)
	j.op = func(t *tracer) (output, error) {
		p, err := simulatePair(j, c.tr, 0, t)
		if err != nil {
			return output{}, err
		}
		return pairOutput(p), nil
	}
	return j, nil
}

// fleetDemands and fleetSpacing shape the fleet-preempt job stream.
var fleetDemands = []int{2, 6, 2, 2, 6, 2}

const fleetSpacing = 50_000

// fleetConfig is one tenant's BSP scale-out configuration.
func fleetConfig(w experiments.Workload, nodes int) scaleout.Config {
	cfg := scaleout.DefaultConfig(nodes)
	cfg.K, cfg.MinCount, cfg.Workers = w.K, w.MinCount, w.Workers
	return cfg
}

// fleetJobs builds the iteration-0 seed blob of each demand once and the
// job stream that shares them.
func fleetJobs(j *job, tr *trace.Trace, t *tracer) ([]tenancy.Job, map[int][]byte, error) {
	seeds := map[int][]byte{}
	jobs := make([]tenancy.Job, len(fleetDemands))
	for i, d := range fleetDemands {
		if seeds[d] == nil {
			id := t.begin("scaleout.Checkpoint")
			blob, err := scaleout.Checkpoint(j.ctx.Reads, tr, fleetConfig(j.w, d), 0)
			t.end(id)
			if err != nil {
				return nil, nil, err
			}
			seeds[d] = blob
		}
		jobs[i] = tenancy.Job{
			Name:    fmt.Sprintf("j%d-n%d", i, d),
			Arrival: sim.Cycle(i * fleetSpacing),
			Trace:   tr,
			Config:  fleetConfig(j.w, d),
			Seed:    seeds[d],
		}
	}
	return jobs, seeds, nil
}

func newFleet(sc scale) tenancy.Fleet {
	return tenancy.Fleet{Nodes: 8, Policy: tenancy.FairShare{}, Quantum: sc.Quantum}
}

func runFleet(f tenancy.Fleet, jobs []tenancy.Job, t *tracer) (*tenancy.Schedule, error) {
	defer t.end(t.begin("tenancy.Fleet.Run"))
	return f.Run(jobs)
}

// setupFleet captures the trace and the seed blobs; one op is one fair-
// share fleet run. The first run is the reference.
func setupFleet(seed int64, sc scale, t *tracer) (*job, error) {
	j, err := generate(seed, sc, t)
	if err != nil {
		return nil, err
	}
	c, err := capture(j, t)
	if err != nil {
		return nil, err
	}
	jobs, _, err := fleetJobs(j, c.tr, t)
	if err != nil {
		return nil, err
	}
	f := newFleet(sc)
	ref, err := runFleet(f, jobs, t)
	if err != nil {
		return nil, err
	}
	if ref.Preemptions < 1 {
		return nil, fmt.Errorf("fleet-preempt: the fleet run made no preemption, want at least one")
	}
	j.ref = output{value: ref, cycles: int64(ref.Makespan)}
	j.op = func(t *tracer) (output, error) {
		s, err := runFleet(f, jobs, t)
		if err != nil {
			return output{}, err
		}
		return output{value: s, cycles: int64(s.Makespan)}, nil
	}
	return j, nil
}
