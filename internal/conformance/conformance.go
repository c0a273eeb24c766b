// Package conformance is the resume-equivalence test layer for the
// distributed runtime's checkpoint/restore (internal/scaleout): it sweeps
// the configuration matrix — topology × replay discipline × partitioner ×
// node count × checkpoint iteration — and, for every cell, asserts the
// three properties the blob format promises:
//
//  1. Resume equivalence: a run checkpointed mid-way and restored finishes
//     with a Result bit-identical (reflect.DeepEqual, floats included) to
//     the uninterrupted run.
//  2. Blob determinism: checkpointing the same (reads, trace, config,
//     iteration) twice yields byte-identical blobs.
//  3. Round-trip stability: decoding a blob and re-encoding it reproduces
//     the same bytes.
//
// The harness is ordinary library code so other packages (and future
// conformance dimensions, e.g. multi-tenant interleaving) can reuse the
// matrix and the verifier; conformance_test.go drives it under `go test`.
package conformance

import (
	"bytes"
	"fmt"
	"reflect"

	"nmppak/internal/assemble"
	"nmppak/internal/compact"
	"nmppak/internal/fault"
	"nmppak/internal/genome"
	"nmppak/internal/kmer"
	"nmppak/internal/readsim"
	"nmppak/internal/scaleout"
	"nmppak/internal/sim"
	"nmppak/internal/telemetry"
	"nmppak/internal/topo"
	"nmppak/internal/trace"
)

// Fixture is the shared workload a sweep runs against: reads, their
// captured compaction trace, and the counting result the weight-aware
// partitioner is built from. The genome carries a repeat family so the
// rebalancing partitioner has real skew to react to.
type Fixture struct {
	Reads []readsim.Read
	Trace *trace.Trace
	Kmers *kmer.Result
	K     int
}

// NewFixture builds the workload: a repeat-skewed synthetic genome,
// simulated short reads, one traced single-batch assembly and the counting
// result.
func NewFixture(genomeLen int) (*Fixture, error) {
	const k, minCount = 32, 3
	g, err := genome.Generate(genome.Config{
		Length: genomeLen, Seed: 13, RepeatFraction: 0.3, RepeatUnit: 600,
	})
	if err != nil {
		return nil, err
	}
	reads, err := readsim.Simulate(g, readsim.Config{
		ReadLen: 100, Coverage: 12, ErrorRate: 0.005, Seed: 13,
	})
	if err != nil {
		return nil, err
	}
	b := trace.NewBuilder(k)
	if _, err := assemble.Run(reads, assemble.Config{
		K: k, MinCount: minCount, Flow: compact.FlowPipelined, Observer: b,
	}); err != nil {
		return nil, err
	}
	kres, err := kmer.Count(reads, kmer.Config{K: k, MinCount: minCount})
	if err != nil {
		return nil, err
	}
	return &Fixture{Reads: reads, Trace: b.Trace(), Kmers: kres, K: k}, nil
}

// Partitioners enumerated by the sweep.
const (
	PartHash      = "hash"
	PartMinimizer = "minimizer"
	PartBalanced  = "balanced"
	PartRebalance = "rebalance"
)

// Case is one cell of the conformance matrix.
type Case struct {
	Topo    topo.Kind
	Overlap bool
	Part    string
	Nodes   int
	// At is the checkpoint iteration (the first iteration the restored run
	// executes); negative means "the middle of the trace".
	At int
	// Elastic turns the cell into an elastic-runtime cell: a periodic
	// checkpoint cadence plus (on multi-node machines) a mid-phase node
	// loss, so the parallel sweep exercises captures, fault boundaries and
	// the recovery rollback with a worker pool.
	Elastic bool
	// Depth, when above 1, cuts the cell's run into pre-stepped stretches
	// of Depth iterations: it is the elastic capture cadence and the
	// rebalancing period, and a static cell's cross-mode checkpoint
	// section also splits the run at every Depth-th boundary.
	Depth int
}

// Name renders the cell for subtest names and error messages.
func (c Case) Name() string {
	disc := "bsp"
	if c.Overlap {
		disc = "overlap"
	}
	if c.Elastic {
		disc = "elastic-" + disc
	}
	at := "mid"
	if c.At >= 0 {
		at = fmt.Sprintf("it%d", c.At)
	}
	name := fmt.Sprintf("%s/%s/%s/n%d/%s", c.Topo, disc, c.Part, c.Nodes, at)
	if c.Depth > 1 {
		name += fmt.Sprintf("/d%d", c.Depth)
	}
	return name
}

// Config materializes the cell's scale-out configuration against a
// fixture.
func (c Case) Config(fx *Fixture) (scaleout.Config, error) {
	cfg := scaleout.DefaultConfig(c.Nodes)
	switch c.Topo {
	case topo.FullMesh:
		cfg.Topo = topo.Default()
	case topo.Torus2D:
		cfg.Topo = topo.Torus(0, 0)
	case topo.Dragonfly:
		cfg.Topo = topo.DragonflyGroups(0)
	default:
		return cfg, fmt.Errorf("conformance: unknown topology kind %v", c.Topo)
	}
	cfg.Overlap = c.Overlap
	switch c.Part {
	case PartHash:
		cfg.Partitioner = scaleout.HashPartitioner{}
	case PartMinimizer:
		cfg.Partitioner = scaleout.NewMinimizerPartitioner(12)
	case PartBalanced:
		cfg.Partitioner = scaleout.NewBalancedPartitioner(fx.Kmers, 12, c.Nodes)
	case PartRebalance:
		cfg.Partitioner = scaleout.NewRebalancePartitioner(12, c.Depth)
	default:
		return cfg, fmt.Errorf("conformance: unknown partitioner %q", c.Part)
	}
	if c.Elastic {
		cfg.CheckpointEvery = max(c.Depth, 2)
	}
	return cfg, nil
}

// Valid reports whether the cell is a legal configuration; the one
// illegal region of the matrix is elastic × rebalance (a recovery
// rollback does not rewind the bucket table) — Validate rejects it,
// which the sweep asserts separately.
func (c Case) Valid() bool {
	return c.Part != PartRebalance || !c.Elastic
}

// Matrix enumerates the full sweep: every topology, both disciplines, all
// four partitioners, the given node counts, mid-trace checkpoints.
func Matrix(nodes []int) []Case {
	var cases []Case
	for _, kind := range []topo.Kind{topo.FullMesh, topo.Torus2D, topo.Dragonfly} {
		for _, overlap := range []bool{false, true} {
			for _, part := range []string{PartHash, PartMinimizer, PartBalanced, PartRebalance} {
				for _, n := range nodes {
					cases = append(cases, Case{Topo: kind, Overlap: overlap, Part: part, Nodes: n, At: -1})
				}
			}
		}
	}
	return cases
}

// Verify runs one cell end to end and returns the first violated property
// as an error (nil when the cell conforms). For an invalid cell it
// asserts that configuration validation rejects it.
func Verify(fx *Fixture, c Case) error {
	cfg, err := c.Config(fx)
	if err != nil {
		return err
	}
	if !c.Valid() {
		if err := cfg.Validate(); err == nil {
			return fmt.Errorf("%s: invalid cell accepted by Config.Validate", c.Name())
		}
		return nil
	}
	at := c.At
	if at < 0 {
		at = len(fx.Trace.Iterations) / 2
	}

	want, err := scaleout.Simulate(fx.Reads, fx.Trace, cfg)
	if err != nil {
		return fmt.Errorf("%s: uninterrupted run: %w", c.Name(), err)
	}
	blob, err := scaleout.Checkpoint(fx.Reads, fx.Trace, cfg, at)
	if err != nil {
		return fmt.Errorf("%s: checkpoint: %w", c.Name(), err)
	}

	// Property 2: blob determinism.
	blob2, err := scaleout.Checkpoint(fx.Reads, fx.Trace, cfg, at)
	if err != nil {
		return fmt.Errorf("%s: second checkpoint: %w", c.Name(), err)
	}
	if !bytes.Equal(blob, blob2) {
		return fmt.Errorf("%s: checkpoint blob is not byte-deterministic (%d vs %d bytes)", c.Name(), len(blob), len(blob2))
	}

	// Property 3: round-trip stability.
	ck, err := scaleout.UnmarshalCheckpoint(blob)
	if err != nil {
		return fmt.Errorf("%s: unmarshal: %w", c.Name(), err)
	}
	rt, err := ck.Marshal()
	if err != nil {
		return fmt.Errorf("%s: re-marshal: %w", c.Name(), err)
	}
	if !bytes.Equal(blob, rt) {
		return fmt.Errorf("%s: decode/encode round trip changed the blob", c.Name())
	}

	// Property 1: resume equivalence, bit for bit.
	got, err := scaleout.Restore(fx.Trace, cfg, blob)
	if err != nil {
		return fmt.Errorf("%s: restore: %w", c.Name(), err)
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("%s: restored result differs from uninterrupted run: %s", c.Name(), diffSummary(got, want))
	}
	return nil
}

// ParallelMatrix enumerates the serial-vs-parallel equivalence sweep
// across every discipline the parallel runtime covers:
//
//   - the hash columns (BSP and overlap) at every node count;
//   - the rebalancing runtime (both disciplines) on the small multi-node
//     columns, where the full verifier cost is affordable;
//   - the elastic runtime (both disciplines, periodic captures plus a
//     mid-phase node loss) on the small columns.
//
// Each small multi-node column runs twice: with the default hook cadence
// and with stretches cut at every third iteration (Depth 3), so the pool
// pre-steps both long and short segments. The hash partitioner keeps the
// sweep's cost on the runtime under test rather than on partitioning
// variety — VerifyParallel holds for any.
func ParallelMatrix(nodes []int) []Case {
	small := func(n int) bool { return n > 1 && n <= 8 }
	var cases []Case
	for _, kind := range []topo.Kind{topo.FullMesh, topo.Torus2D, topo.Dragonfly} {
		for _, overlap := range []bool{false, true} {
			for _, n := range nodes {
				cases = append(cases, Case{Topo: kind, Overlap: overlap, Part: PartHash, Nodes: n, At: -1})
				if small(n) {
					cases = append(cases, Case{Topo: kind, Overlap: overlap, Part: PartHash, Nodes: n, At: -1, Depth: 3})
				}
			}
		}
		for _, n := range nodes {
			if !small(n) {
				continue
			}
			for _, d := range []int{1, 3} {
				for _, overlap := range []bool{false, true} {
					cases = append(cases, Case{Topo: kind, Overlap: overlap, Part: PartRebalance, Nodes: n, At: -1, Depth: d})
					cases = append(cases, Case{Topo: kind, Overlap: overlap, Part: PartHash, Nodes: n, At: -1, Depth: d, Elastic: true})
				}
			}
		}
	}
	return cases
}

// VerifyParallel asserts that a run pre-stepping on a worker pool is
// indistinguishable from the serial one on a cell, beyond wall-clock:
//
//  1. Result equivalence: Workers=1 and Workers=workers runs produce
//     bit-identical Results (reflect.DeepEqual, floats included).
//  2. Telemetry equivalence: both runs export byte-identical Chrome
//     traces — every span, on every node/DRAM/link track, lands at the
//     same cycle with the same payload in the same order.
//  3. Checkpoint equivalence: blobs captured under either worker count
//     are byte-identical, and a blob captured under one mode restored
//     under the other (both directions) resumes to the serial Result.
func VerifyParallel(fx *Fixture, c Case, workers int) error {
	cfg, err := c.Config(fx)
	if err != nil {
		return err
	}
	if !c.Valid() {
		return nil
	}
	name := fmt.Sprintf("%s/w%d", c.Name(), workers)

	// An elastic cell injects a mid-phase node loss so the equivalence
	// holds across captures, fault boundaries and the recovery rollback —
	// the loss cycle comes from a fault-free serial run of the same cell.
	if c.Elastic && c.Nodes > 1 {
		golden, err := scaleout.Simulate(fx.Reads, fx.Trace, cfg)
		if err != nil {
			return fmt.Errorf("%s: fault-free elastic run: %w", name, err)
		}
		at := sim.Cycle(float64(golden.Compact.Total()) / 2)
		cfg.Faults = fault.NodeLossAt(c.Nodes/2, at, 500)
	}

	run := func(w int) (*scaleout.Result, []byte, error) {
		rcfg := cfg
		rcfg.Workers = w
		rcfg.Telemetry = telemetry.New()
		res, err := scaleout.Simulate(fx.Reads, fx.Trace, rcfg)
		if err != nil {
			return nil, nil, err
		}
		var buf bytes.Buffer
		if err := rcfg.Telemetry.WriteChrome(&buf); err != nil {
			return nil, nil, err
		}
		return res, buf.Bytes(), nil
	}
	serial, strace, err := run(1)
	if err != nil {
		return fmt.Errorf("%s: serial run: %w", name, err)
	}
	parallel, ptrace, err := run(workers)
	if err != nil {
		return fmt.Errorf("%s: parallel run: %w", name, err)
	}
	if !reflect.DeepEqual(parallel, serial) {
		return fmt.Errorf("%s: parallel result differs from serial: %s", name, diffSummary(parallel, serial))
	}
	if !bytes.Equal(ptrace, strace) {
		return fmt.Errorf("%s: telemetry traces diverge (%d vs %d bytes)", name, len(ptrace), len(strace))
	}

	// The elastic runtime owns its checkpoint lifecycle (periodic ring
	// captures inside the run — their byte-identity across worker counts
	// is covered by the Result and trace comparisons above, which include
	// the restored-from-ring recovery); the external Checkpoint API
	// rejects elastic configurations, so the cross-mode blob section only
	// applies to the static and rebalancing runtimes.
	if c.Elastic {
		return nil
	}

	// Checkpoint identity and cross-mode restore at the cell's boundary
	// and, for a Depth cell, at every Depth-th boundary: each split
	// pre-steps the run in a different pair of stretches.
	at := c.At
	if at < 0 {
		at = len(fx.Trace.Iterations) / 2
	}
	boundaries := []int{at}
	for b := c.Depth; c.Depth > 1 && b < len(fx.Trace.Iterations); b += c.Depth {
		if b != at {
			boundaries = append(boundaries, b)
		}
	}
	scfg, pcfg := cfg, cfg
	scfg.Workers, pcfg.Workers = 1, workers
	for _, at := range boundaries {
		sblob, err := scaleout.Checkpoint(fx.Reads, fx.Trace, scfg, at)
		if err != nil {
			return fmt.Errorf("%s: serial checkpoint at %d: %w", name, at, err)
		}
		pblob, err := scaleout.Checkpoint(fx.Reads, fx.Trace, pcfg, at)
		if err != nil {
			return fmt.Errorf("%s: parallel checkpoint at %d: %w", name, at, err)
		}
		if !bytes.Equal(sblob, pblob) {
			return fmt.Errorf("%s: checkpoint blobs at %d diverge across worker counts (%d vs %d bytes)", name, at, len(sblob), len(pblob))
		}
		fromParallel, err := scaleout.Restore(fx.Trace, scfg, pblob)
		if err != nil {
			return fmt.Errorf("%s: serial restore of parallel-captured blob at %d: %w", name, at, err)
		}
		if !reflect.DeepEqual(fromParallel, serial) {
			return fmt.Errorf("%s: parallel-captured blob at %d restored serially diverges: %s", name, at, diffSummary(fromParallel, serial))
		}
		fromSerial, err := scaleout.Restore(fx.Trace, pcfg, sblob)
		if err != nil {
			return fmt.Errorf("%s: parallel restore of serial-captured blob at %d: %w", name, at, err)
		}
		if !reflect.DeepEqual(fromSerial, serial) {
			return fmt.Errorf("%s: serial-captured blob at %d restored in parallel diverges: %s", name, at, diffSummary(fromSerial, serial))
		}
	}
	return nil
}

// diffSummary points at the first diverging Result field so a conformance
// failure is actionable without a debugger.
func diffSummary(got, want *scaleout.Result) string {
	switch {
	case got.TotalCycles != want.TotalCycles:
		return fmt.Sprintf("TotalCycles %d vs %d", got.TotalCycles, want.TotalCycles)
	case got.Compact != want.Compact:
		return fmt.Sprintf("Compact %+v vs %+v", got.Compact, want.Compact)
	case got.CommCycles != want.CommCycles:
		return fmt.Sprintf("CommCycles %d vs %d", got.CommCycles, want.CommCycles)
	case got.ExchangedBytes != want.ExchangedBytes:
		return fmt.Sprintf("ExchangedBytes %d vs %d", got.ExchangedBytes, want.ExchangedBytes)
	case got.Rebalances != want.Rebalances || got.MigratedBytes != want.MigratedBytes:
		return fmt.Sprintf("migrations %d/%d vs %d/%d", got.Rebalances, got.MigratedBytes, want.Rebalances, want.MigratedBytes)
	case !reflect.DeepEqual(got.PerNode, want.PerNode):
		return "PerNode stats diverge"
	case !reflect.DeepEqual(got.NMP, want.NMP):
		return "per-node NMP results diverge"
	default:
		return "aggregate fields diverge (Seconds/CommFraction/Imbalance)"
	}
}
