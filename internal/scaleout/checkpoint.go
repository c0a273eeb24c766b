// Checkpoint/restore for the distributed runtime: a paused run is
// exported as a versioned, deterministic byte blob between compaction
// iterations and later reconstructed into a runtime that resumes and
// finishes with results bit-identical to the uninterrupted run. There is
// one marshaling path, runtime.checkpoint: Checkpoint and
// Session.Checkpoint export through it, and the elastic capture hook
// writes its in-memory blobs through it too (those add the membership
// section). Restore and ResumeSession rebuild the same runtime type
// Simulate runs.
//
// What goes in the blob is exactly the state that is not a pure function
// of the immutable inputs (reads, trace, Config):
//
//   - the pre-compaction phases (counting, construction): their timing and
//     per-node software statistics, so a restored run never re-runs the
//     software pipeline;
//   - each node's stepwise nmp.Engine: trace cursor, local clock,
//     accumulated result and every DRAM channel's bank/rank/bus timing
//     (nmp.EngineState) — the engines are quiescent between iterations, so
//     this snapshot is complete;
//   - the measured per-node, per-iteration compute durations of the
//     iterations already executed.
//
// Everything else is derived again at restore time, under either
// discipline, by running the discipline's own loop over the executed
// prefix with the recorded durations standing in for the engine steps
// (engine durations do not depend on the schedule): the phase clock and
// its partial sums, every topo link clock, and — for a
// RebalancePartitioner, whose migration decisions read only durations
// and the trace — the ownership history, the halo matrices, the
// migrations and the traffic counters. The sharded sub-traces are not in
// the blob either: sharding is a pure function of (trace, owner). That
// keeps the blob small (engine timing state + durations, not the trace)
// and keeps one source of truth.
//
// Restore refuses blobs it cannot honour: short or truncated blobs, an
// unknown version tag, and any drift between the blob's recorded identity
// (node count, K, discipline, partitioner, topology, full config digest,
// trace digest) and the (trace, Config) presented at restore time.
package scaleout

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/fnv"

	"nmppak/internal/nmp"
	"nmppak/internal/readsim"
	"nmppak/internal/sim"
	"nmppak/internal/telemetry"
	"nmppak/internal/topo"
	"nmppak/internal/trace"
)

// CheckpointVersion is the current blob format version. Restore rejects
// any other version; bump it whenever CheckpointState (or anything it
// embeds, such as nmp.EngineState) changes incompatibly.
// Version 2 added the elastic membership section (ElasticState); version
// 3 dropped everything a restore derives by replay (the BSP partial sums,
// the rebalance section and the elastic traffic counters).
const CheckpointVersion = 3

// Structural ceilings applied while validating a decoded blob, before any
// of its counts size an allocation or a loop: far above any simulated
// machine, low enough that a corrupt or adversarial length field cannot
// make Restore balloon.
const (
	maxCheckpointNodes = 1 << 16
	maxCheckpointIters = 1 << 24
)

// checkpointMagic prefixes every blob, before the little-endian uint32
// version tag and the gob-encoded CheckpointState payload.
const checkpointMagic = "NMPPAK-CKPT\n"

// ErrElasticConfig is wrapped by Checkpoint and Restore when the
// configuration is elastic (CheckpointEvery / Faults): elastic runs
// manage their own in-memory recovery checkpoint and are not externally
// pause-and-resumable. Schedulers detect non-preemptible jobs with
// errors.Is(err, ErrElasticConfig) — the tenancy layer queues such
// fault-plan tenants on dedicated nodes instead of time-slicing them.
var ErrElasticConfig = errors.New("elastic config (CheckpointEvery/Faults) manages its own recovery checkpoints")

// ElasticState is an elastic run's extra checkpoint state: the live
// membership the blob was captured under. Present exactly on the
// in-memory blobs the capture hook writes (Config.CheckpointEvery /
// Config.Faults); the external Checkpoint/Restore surface never carries
// it.
type ElasticState struct {
	// Live[i] reports whether node i was still alive at capture time; a
	// dead node's engine is frozen at its own last committed iteration
	// (Engines[i].Next <= ResumeIter).
	Live []bool
}

// CheckpointState is the decoded form of a checkpoint blob: everything a
// Restore needs beyond the immutable (trace, Config) inputs. Most callers
// only move the opaque blob around; the struct is exported so tools and
// the conformance harness can introspect it.
type CheckpointState struct {
	Version uint32

	// Identity of the run the blob belongs to. Restore matches these
	// against the presented configuration and trace.
	ConfigDigest uint64
	TraceDigest  uint64
	Nodes        int
	K            int
	Overlap      bool
	Partitioner  string
	Topology     string

	// Pre-compaction result (phases 1 and 2 plus per-node software
	// statistics), so a restored run skips the software pipeline.
	Count                 PhaseCycles
	Construct             PhaseCycles
	PerNode               []NodeStats
	PreludeExchangedBytes int64

	// ResumeIter is the first compaction iteration still to execute;
	// Durations[i][it] holds node i's measured compute time for every
	// it < ResumeIter, and Engines[i] is node i's quiescent mid-run state.
	ResumeIter int
	Durations  [][]sim.Cycle
	Engines    []nmp.EngineState

	// Elastic is present exactly on an elastic run's internal recovery
	// blobs (see ElasticState).
	Elastic *ElasticState
}

// Checkpoint runs the scale-out pipeline — the software phases and the
// first beforeIter compaction iterations — and exports the paused state as
// a versioned, deterministic blob instead of finishing. beforeIter may be
// 0 (pause right after MacroNode construction) up to the trace's iteration
// count (pause after the last iteration, before sealing). The same
// (reads, trace, cfg, beforeIter) always yields a byte-identical blob.
//
// Restore(tr, cfg, blob) — same trace, same config — resumes the run and
// returns a Result bit-identical to Simulate(reads, tr, cfg).
func Checkpoint(reads []readsim.Read, tr *trace.Trace, cfg Config, beforeIter int) ([]byte, error) {
	net, err := validateRun(tr, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.elastic() {
		return nil, fmt.Errorf("scaleout: Checkpoint pauses a deterministic run; %w", ErrElasticConfig)
	}
	iters := len(tr.Iterations)
	if beforeIter < 0 || beforeIter > iters {
		return nil, fmt.Errorf("scaleout: checkpoint iteration %d outside [0, %d]", beforeIter, iters)
	}
	// A capture can be instrumented too: the BSP discipline records the
	// executed iteration range plus a checkpoint marker at the pause point
	// (the overlapped capture steps its engines through the BSP loop but
	// has no global schedule of its own — its restore replays the whole
	// macro-schedule — so it records only the software phases and the
	// marker, at the start of the compaction phase).
	var pr *probes
	if cfg.Telemetry != nil {
		pr = newProbes(cfg.Telemetry, net, cfg)
	}
	res, err := runPrelude(reads, cfg, net, pr)
	if err != nil {
		return nil, err
	}
	r, err := newRuntime(tr, net, cfg, res, nil)
	if err != nil {
		return nil, err
	}
	if !cfg.Overlap {
		r.setProbes(pr)
	}
	if err := r.bsp(beforeIter); err != nil {
		return nil, err
	}
	blob, err := r.checkpoint(beforeIter)
	if err != nil {
		return nil, err
	}
	if pr != nil {
		at := pr.base
		if !cfg.Overlap {
			at += r.now()
		}
		pr.phases.Add(telemetry.SpanCheckpoint, at, at, int64(beforeIter), 0)
		pr.seal()
	}
	return blob, nil
}

// checkpoint marshals the run's state at boundary it as a versioned blob:
// the identity and prelude sections, the executed durations and engine
// snapshots, and — on an elastic run's recovery blobs — the membership
// (ElasticState). Checkpoint, Session.Checkpoint and the elastic capture
// all marshal through it, so an incrementally advanced session snapshots
// byte-identically to a one-shot capture at the same boundary.
func (r *runtime) checkpoint(it int) ([]byte, error) {
	if !r.digested {
		r.cfgDigest, r.trDigest = configDigest(r.cfg, r.net.Name()), traceDigest(r.tr)
		r.digested = true
	}
	ck := &CheckpointState{
		Version:               CheckpointVersion,
		ConfigDigest:          r.cfgDigest,
		TraceDigest:           r.trDigest,
		Nodes:                 r.cfg.Nodes,
		K:                     r.cfg.K,
		Overlap:               r.cfg.Overlap,
		Partitioner:           r.cfg.Partitioner.Name(),
		Topology:              r.net.Name(),
		Count:                 r.res.Count,
		Construct:             r.res.Construct,
		PerNode:               r.res.PerNode,
		PreludeExchangedBytes: r.res.ExchangedBytes,
		ResumeIter:            it,
		Durations:             make([][]sim.Cycle, r.n),
		Engines:               make([]nmp.EngineState, r.n),
	}
	if r.live != nil {
		ck.Elastic = &ElasticState{Live: append([]bool(nil), r.live...)}
	}
	for i, e := range r.engines {
		ck.Durations[i] = append([]sim.Cycle(nil), r.durations[i][:it]...)
		st, err := e.Snapshot()
		if err != nil {
			return nil, err
		}
		ck.Engines[i] = st
	}
	return ck.Marshal()
}

// Restore reconstructs a distributed run from a checkpoint blob — taken
// under the same trace and configuration — and drives it to completion.
// The returned Result is bit-identical to the uninterrupted
// Simulate(reads, tr, cfg) the checkpoint was carved out of; the reads
// themselves are not needed, because the blob carries the software-phase
// outcome.
func Restore(tr *trace.Trace, cfg Config, blob []byte) (*Result, error) {
	r, err := resume(tr, cfg, blob, func(cfg Config) error {
		if cfg.elastic() {
			return fmt.Errorf("scaleout: Restore resumes a deterministic run; %w", ErrElasticConfig)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// An instrumented restore records the software phases from the blob's
	// timing and the live compaction range: the BSP discipline replayed
	// its prefix before the probes attach, so it re-enters the global
	// timeline at the pause point; the overlapped discipline replays its
	// whole macro-schedule here (so even the pre-pause iterations get
	// spans, with recorded durations standing in).
	var pr *probes
	if cfg.Telemetry != nil {
		pr = newProbes(cfg.Telemetry, r.net, cfg)
		pr.prelude(r.res)
	}
	r.setProbes(pr)
	co, err := r.finish()
	if err != nil {
		return nil, err
	}
	finalize(r.res, co)
	if pr != nil {
		pr.seal()
	}
	return r.res, nil
}

// resume decodes a checkpoint blob, validates it against (tr, cfg) —
// after cfg passes check — and rebuilds the paused runtime, reporting
// into the prelude Result the blob carries. Restore and ResumeSession
// share it.
func resume(tr *trace.Trace, cfg Config, blob []byte, check func(Config) error) (*runtime, error) {
	ck, err := UnmarshalCheckpoint(blob)
	if err != nil {
		return nil, err
	}
	net, err := validateRun(tr, cfg)
	if err != nil {
		return nil, err
	}
	if err := check(cfg); err != nil {
		return nil, err
	}
	if err := ck.matches(tr, cfg, net); err != nil {
		return nil, err
	}
	res := &Result{
		Nodes:          cfg.Nodes,
		Partitioner:    cfg.Partitioner.Name(),
		Topology:       net.Name(),
		Count:          ck.Count,
		Construct:      ck.Construct,
		PerNode:        append([]NodeStats(nil), ck.PerNode...),
		ExchangedBytes: ck.PreludeExchangedBytes,
	}
	return newRuntime(tr, net, cfg, res, ck)
}

// Marshal encodes the checkpoint as magic + version tag + gob payload.
// Encoding is deterministic: the same state always yields the same bytes.
func (ck *CheckpointState) Marshal() ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString(checkpointMagic)
	var vtag [4]byte
	binary.LittleEndian.PutUint32(vtag[:], ck.Version)
	buf.Write(vtag[:])
	if err := gob.NewEncoder(&buf).Encode(ck); err != nil {
		return nil, fmt.Errorf("scaleout: checkpoint encode: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalCheckpoint decodes and structurally validates a checkpoint
// blob. It returns an error — never panics — on truncated input, a wrong
// magic or version tag, or internally inconsistent state.
func UnmarshalCheckpoint(blob []byte) (*CheckpointState, error) {
	head := len(checkpointMagic) + 4
	if len(blob) < head {
		return nil, fmt.Errorf("scaleout: checkpoint blob truncated (%d bytes, header is %d)", len(blob), head)
	}
	if string(blob[:len(checkpointMagic)]) != checkpointMagic {
		return nil, fmt.Errorf("scaleout: not a checkpoint blob (bad magic)")
	}
	v := binary.LittleEndian.Uint32(blob[len(checkpointMagic):head])
	if v != CheckpointVersion {
		return nil, fmt.Errorf("scaleout: checkpoint version %d unsupported (this build reads version %d)", v, CheckpointVersion)
	}
	ck := &CheckpointState{}
	r := bytes.NewReader(blob[head:])
	if err := gob.NewDecoder(r).Decode(ck); err != nil {
		return nil, fmt.Errorf("scaleout: checkpoint decode (truncated or corrupt blob): %w", err)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("scaleout: checkpoint blob has %d trailing bytes past the payload", r.Len())
	}
	if ck.Version != v {
		return nil, fmt.Errorf("scaleout: checkpoint header version %d does not match payload version %d", v, ck.Version)
	}
	if err := ck.validate(); err != nil {
		return nil, err
	}
	return ck, nil
}

// validate checks the decoded state's internal consistency, so Restore
// can index into it without panicking even on adversarial blobs.
func (ck *CheckpointState) validate() error {
	if ck.Nodes < 1 || ck.Nodes > maxCheckpointNodes {
		return fmt.Errorf("scaleout: checkpoint has %d nodes (valid range [1, %d])", ck.Nodes, maxCheckpointNodes)
	}
	if ck.ResumeIter < 0 || ck.ResumeIter > maxCheckpointIters {
		return fmt.Errorf("scaleout: checkpoint resume iteration %d outside [0, %d]", ck.ResumeIter, maxCheckpointIters)
	}
	if len(ck.PerNode) != ck.Nodes || len(ck.Engines) != ck.Nodes || len(ck.Durations) != ck.Nodes {
		return fmt.Errorf("scaleout: checkpoint per-node state sized %d/%d/%d for %d nodes",
			len(ck.PerNode), len(ck.Engines), len(ck.Durations), ck.Nodes)
	}
	if es := ck.Elastic; es != nil {
		if len(es.Live) != ck.Nodes {
			return fmt.Errorf("scaleout: checkpoint live mask sized %d for %d nodes", len(es.Live), ck.Nodes)
		}
		alive := 0
		for _, l := range es.Live {
			if l {
				alive++
			}
		}
		if alive == 0 {
			return fmt.Errorf("scaleout: checkpoint live mask has no survivors")
		}
	}
	for i := range ck.Durations {
		if len(ck.Durations[i]) != ck.ResumeIter {
			return fmt.Errorf("scaleout: checkpoint node %d records %d durations, resume iteration is %d",
				i, len(ck.Durations[i]), ck.ResumeIter)
		}
		// A dead node of an elastic blob is frozen at its own last
		// committed iteration; everyone else must be exactly at the
		// resume point.
		if ck.Elastic != nil && !ck.Elastic.Live[i] {
			if ck.Engines[i].Next < 0 || ck.Engines[i].Next > ck.ResumeIter {
				return fmt.Errorf("scaleout: checkpoint dead node %d engine cursor %d outside [0, %d]",
					i, ck.Engines[i].Next, ck.ResumeIter)
			}
		} else if ck.Engines[i].Next != ck.ResumeIter {
			return fmt.Errorf("scaleout: checkpoint node %d engine cursor %d, resume iteration is %d",
				i, ck.Engines[i].Next, ck.ResumeIter)
		}
	}
	return nil
}

// matches verifies the blob belongs to the presented (trace, Config) pair.
func (ck *CheckpointState) matches(tr *trace.Trace, cfg Config, net topo.Network) error {
	if cfg.Nodes != ck.Nodes {
		return fmt.Errorf("scaleout: checkpoint taken on %d nodes, config has %d", ck.Nodes, cfg.Nodes)
	}
	if cfg.K != ck.K {
		return fmt.Errorf("scaleout: checkpoint taken at K=%d, config has K=%d", ck.K, cfg.K)
	}
	if cfg.Overlap != ck.Overlap {
		return fmt.Errorf("scaleout: checkpoint taken with overlap=%v, config has overlap=%v", ck.Overlap, cfg.Overlap)
	}
	if name := cfg.Partitioner.Name(); name != ck.Partitioner {
		return fmt.Errorf("scaleout: checkpoint taken under partitioner %q, config has %q", ck.Partitioner, name)
	}
	if name := net.Name(); name != ck.Topology {
		return fmt.Errorf("scaleout: checkpoint taken on topology %q, config builds %q", ck.Topology, name)
	}
	if ck.Elastic != nil {
		return fmt.Errorf("scaleout: blob carries elastic membership state (an internal recovery checkpoint); only the elastic runtime's ring restores it")
	}
	if d := configDigest(cfg, net.Name()); d != ck.ConfigDigest {
		return fmt.Errorf("scaleout: configuration digest %016x does not match checkpoint %016x", d, ck.ConfigDigest)
	}
	if ck.ResumeIter > len(tr.Iterations) {
		return fmt.Errorf("scaleout: checkpoint resumes at iteration %d, trace has %d", ck.ResumeIter, len(tr.Iterations))
	}
	if d := traceDigest(tr); d != ck.TraceDigest {
		return fmt.Errorf("scaleout: trace digest %016x does not match checkpoint %016x", d, ck.TraceDigest)
	}
	return nil
}

// configDigest fingerprints every configuration field the simulation
// outcome depends on. Workers is deliberately excluded: it bounds host
// parallelism while computing the (deterministic) result, so a blob may be
// restored on a machine with a different core count.
func configDigest(cfg Config, topoName string) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "nodes=%d k=%d min=%d overlap=%v part=%s topo=%s|%+v nmp=%+v sw=%+v ckpt=%d/%g faults=%s",
		cfg.Nodes, cfg.K, cfg.MinCount, cfg.Overlap,
		partitionerID(cfg.Partitioner), topoName, cfg.Topo, cfg.NMP, cfg.Software,
		cfg.CheckpointEvery, cfg.CheckpointBytesPerCycle, cfg.Faults.Fingerprint())
	return h.Sum64()
}

// partitionerID renders a partitioner's identity beyond its name: a
// BalancedPartitioner folds in its assignment-table fingerprint (two
// same-named instances built from different samples shard differently)
// and a RebalancePartitioner its migration trigger.
func partitionerID(p Partitioner) string {
	switch pp := p.(type) {
	case BalancedPartitioner:
		return fmt.Sprintf("%s#%016x", pp.Name(), pp.Fingerprint())
	case *BalancedPartitioner:
		// The pointer form satisfies Partitioner through the value
		// receivers; identity must not depend on which form the caller
		// happened to store.
		return fmt.Sprintf("%s#%016x", pp.Name(), pp.Fingerprint())
	case *RebalancePartitioner:
		return fmt.Sprintf("%s@%g", pp.Name(), pp.Trigger)
	default:
		return p.Name()
	}
}

// traceDigest fingerprints the compaction trace's full contents — shape
// plus every recorded operation (node keys and sizes, transfer routing
// and payloads, update volumes) — so a blob cannot be restored against a
// different trace that merely shares the shape. One FNV pass over the
// packed fields; the quantile tables are derived from the node streams
// and need no separate hashing.
func traceDigest(tr *trace.Trace) uint64 {
	h := fnv.New64a()
	var b [8]byte
	w := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	w(uint64(tr.K))
	w(uint64(len(tr.Iterations)))
	for i := range tr.Iterations {
		it := &tr.Iterations[i]
		w(uint64(len(it.Nodes)))
		w(uint64(len(it.Transfers)))
		w(uint64(len(it.Updates)))
		for j := range it.Nodes {
			nd := &it.Nodes[j]
			w(uint64(nd.Key))
			w(uint64(uint32(nd.D1)) | uint64(uint32(nd.D2))<<32)
			w(uint64(uint32(nd.Exts)) | uint64(uint32(nd.Wires))<<32)
			if nd.Invalidated {
				w(1)
			} else {
				w(0)
			}
		}
		for j := range it.Transfers {
			tn := &it.Transfers[j]
			w(uint64(uint32(tn.SrcIdx)) | uint64(uint32(tn.DstIdx))<<32)
			v := uint64(uint32(tn.TNBytes))
			if tn.SuffixSide {
				v |= 1 << 32
			}
			w(v)
		}
		for j := range it.Updates {
			u := &it.Updates[j]
			w(uint64(uint32(u.DstIdx)))
			w(uint64(uint32(u.ReadBytes)) | uint64(uint32(u.WriteBytes))<<32)
		}
	}
	return h.Sum64()
}
