// Elastic recovery for the distributed compaction runtime: periodic
// in-memory checkpoints plus a deterministic fault plan (internal/fault)
// turn the fixed-membership replay into a run that survives node loss and
// link failure mid-flight.
//
// The protocol composes three pieces that already existed separately —
// the exact engine snapshot of checkpoint.go, the ownership-change
// migration pricing of rebalance.go, and the degradable interconnect of
// topo.Degraded — into the classic rollback-recovery loop:
//
//   - Every Config.CheckpointEvery iterations the runtime captures the
//     full checkpoint blob (the same versioned bytes Checkpoint emits,
//     decoded by the same hardened UnmarshalCheckpoint on the way back)
//     into a small in-memory ring, charging len(blob)/CheckpointBytesPerCycle
//     as a global stall — the coordinated-checkpoint cost.
//   - fault.Plan events are applied at iteration boundaries, the first
//     point a lockstep run can act on them. Link events mutate the
//     Degraded interconnect in place (every later exchange sees the lost
//     bandwidth or the detour). A node loss is detected at the next
//     boundary: the plan's DetectCycles stall, then every node —
//     survivors live, casualties frozen — is restored from the newest
//     ring blob, the work since that checkpoint is discarded, and the
//     dead node's shard fails over to the survivors
//     (key-hash-partitioned across the live set). The MacroNodes that
//     changed owners are charged over the degraded network before the
//     run resumes — the re-partition migration, priced exactly like a
//     rebalance migration.
//
// The global clock never rolls back: discarded work, detection, restore
// and migration all stay in the elapsed phase time (that is the recovery
// overhead the cadence sweep in internal/experiments measures), while the
// logical output — engine results, per-iteration durations, halo
// accounting — is rolled back and re-executed so the finished run's
// output equals a fault-free run over the surviving membership. With no
// checkpoints configured (CheckpointEvery == 0) a loss restarts the
// compaction phase from iteration 0 on the survivors, the degenerate
// cadence the sweep's zero point measures.
//
// The run is a third driver on the shared core (runtime.go), with the
// core's live mask as the membership and topo.Degraded as its network.
// Its one BSP loop pre-steps chunks that never cross a capture boundary
// and prices each superstep over the live nodes; its overlapped
// discipline calls the same segment scheduler as the fixed-membership
// runtime, once per checkpoint segment. A fault-free configuration with
// CheckpointEvery == 0 never enters this file: Simulate dispatches here
// only when cfg.elastic().
package scaleout

import (
	"fmt"

	"nmppak/internal/dna"
	"nmppak/internal/fault"
	"nmppak/internal/sim"
	"nmppak/internal/telemetry"
	"nmppak/internal/topo"
	"nmppak/internal/trace"
)

// DefaultCheckpointBytesPerCycle prices checkpoint capture and restore
// I/O when Config.CheckpointBytesPerCycle is zero: 16 B/cycle is about
// 25.6 GB/s at the modeled 1.6 GHz — a striped local NVMe target.
const DefaultCheckpointBytesPerCycle = 16

// elasticRingCap bounds the in-memory checkpoint ring. Recovery restores
// from the newest entry; the older ones are the safety margin against a
// blob that fails to decode.
const elasticRingCap = 4

// ringEntry is one captured checkpoint: the iteration it resumes at and
// the marshaled blob (real bytes — restore decodes them through
// UnmarshalCheckpoint, so the ring exercises the same hardened path an
// on-disk blob does).
type ringEntry struct {
	iter int
	blob []byte
}

// elasticRun drives the fault-aware compaction replay on the shared
// driver core, whose live mask tracks the membership and whose network is
// the degradable wrapper. The protocol stalls — checkpoint captures,
// detection and restore — are charged to the barrier bucket, re-partition
// migrations to exchange. Recovery bookkeeping accumulates directly on
// the run's Result.
type elasticRun struct {
	core
	tr  *trace.Trace
	deg *topo.Degraded
	res *Result // prelude outcome, embedded in every captured blob

	k1    int
	every int     // checkpoint cadence (0 = none)
	ckBPC float64 // checkpoint capture/restore bytes per cycle

	events    []fault.Event // plan events in application order
	nextEvent int           // first pending event
	detect    sim.Cycle     // failure-detection latency per recovery

	surv   []int // live node indices, ascending (failover hash targets)
	traces []*trace.Trace

	localTNs, remoteTNs, haloBytes int64 // committed logical traffic

	cfgDigest, trDigest uint64
	ring                []ringEntry
}

// runElastic executes the compaction phase with periodic checkpoints and
// the configured fault plan, on a degradable wrapper of net, recording
// the recovery accounting and traffic on res.
func runElastic(tr *trace.Trace, net topo.Network, cfg Config, res *Result, pr *probes) (*compactOutcome, error) {
	er, err := newElasticRun(tr, net, cfg, res, pr)
	if err != nil {
		return nil, err
	}
	if cfg.Overlap {
		err = er.runOverlapped()
	} else {
		err = er.runBSP()
	}
	if err != nil {
		return nil, err
	}
	res.HaloBytes = er.haloBytes
	res.RemoteTNFrac = remoteTNFrac(er.localTNs, er.remoteTNs)
	// Every engine — survivors complete, casualties frozen at their last
	// committed iteration — reports its result.
	return er.outcome(), nil
}

func newElasticRun(tr *trace.Trace, net topo.Network, cfg Config, res *Result, pr *probes) (*elasticRun, error) {
	n := cfg.Nodes
	deg := topo.NewDegraded(net)
	er := &elasticRun{
		core:      newCore(cfg, deg, len(tr.Iterations)),
		tr:        tr,
		deg:       deg,
		res:       res,
		k1:        tr.K - 1,
		every:     cfg.CheckpointEvery,
		ckBPC:     cfg.CheckpointBytesPerCycle,
		traces:    make([]*trace.Trace, n),
		cfgDigest: configDigest(cfg, net.Name()),
		trDigest:  traceDigest(tr),
	}
	if er.ckBPC <= 0 {
		er.ckBPC = DefaultCheckpointBytesPerCycle
	}
	if cfg.Faults != nil {
		er.events = cfg.Faults.Sorted()
		er.detect = cfg.Faults.DetectCycles
	}
	er.live = make([]bool, n)
	for i := 0; i < n; i++ {
		er.live[i] = true
		er.surv = append(er.surv, i)
		er.traces[i] = &trace.Trace{K: tr.K}
	}
	if err := er.loadEngines(er.traces, nil); err != nil {
		return nil, err
	}
	er.setProbes(pr)
	return er, nil
}

// ownerOf resolves a key under the current membership: the static
// partitioner's owner while it lives, otherwise a deterministic
// key-hashed survivor — every node computes the same failover assignment
// without coordination, like the base partitioners.
func (er *elasticRun) ownerOf(key dna.Kmer) int {
	return ownerUnder(er.cfg.Partitioner, key, er.k1, er.n, er.live, er.surv)
}

func ownerUnder(p Partitioner, key dna.Kmer, k1, n int, live []bool, surv []int) int {
	o := p.Owner(key, k1, n)
	if live[o] {
		return o
	}
	return surv[mix64(uint64(key))%uint64(len(surv))]
}

// nextLive is the replica node holding the dead node's shard copy in the
// recovery model: the next live node in ring order.
func (er *elasticRun) nextLive(i int) int {
	for d := 1; d <= er.n; d++ {
		if j := (i + d) % er.n; er.live[j] {
			return j
		}
	}
	return i
}

// pendingLoss reports whether the next boundary pass will act on a node
// loss — an event already due at the current phase time. The BSP loop
// peeks so it can drop the un-placed telemetry of pre-stepped iterations
// before the recovery's own spans are recorded.
func (er *elasticRun) pendingLoss() bool {
	for _, ev := range er.events[er.nextEvent:] {
		if ev.Cycle > er.now() {
			return false
		}
		if ev.Kind == fault.NodeLoss {
			return true
		}
	}
	return false
}

// captureDue reports whether a periodic checkpoint should be captured
// before iteration it (never re-captured after a recovery pushed a
// baseline at the same boundary).
func (er *elasticRun) captureDue(it int) bool {
	if er.every <= 0 || it == 0 || it%er.every != 0 {
		return false
	}
	return len(er.ring) == 0 || er.ring[len(er.ring)-1].iter < it
}

// segmentEnd is where the segment starting at iteration it ends: the
// next checkpoint boundary (a coordinated capture is a global
// synchronization), or the end of the phase.
func (er *elasticRun) segmentEnd(it int) int {
	if er.every > 0 {
		return min((it/er.every+1)*er.every, er.iters)
	}
	return er.iters
}

// snapshot marshals the current state as a standard checkpoint blob
// resuming at iteration it, with the elastic membership section attached.
func (er *elasticRun) snapshot(it int) ([]byte, error) {
	ck := checkpointHeader(er.cfg, er.deg.Name(), er.cfgDigest, er.trDigest, er.res, it)
	ck.Elastic = &ElasticState{
		Live:      append([]bool(nil), er.live...),
		LocalTNs:  er.localTNs,
		RemoteTNs: er.remoteTNs,
		HaloBytes: er.haloBytes,
	}
	if err := snapshotInto(ck, er.durations, er.engines); err != nil {
		return nil, err
	}
	return ck.Marshal()
}

// capture pushes a periodic checkpoint into the ring and charges the
// capture stall.
func (er *elasticRun) capture(it int) error {
	blob, err := er.snapshot(it)
	if err != nil {
		return err
	}
	if len(er.ring) == elasticRingCap {
		copy(er.ring, er.ring[1:])
		er.ring = er.ring[:elasticRingCap-1]
	}
	er.ring = append(er.ring, ringEntry{iter: it, blob: blob})
	d := sim.Cycle(float64(len(blob)) / er.ckBPC)
	er.res.Checkpoints++
	er.res.CheckpointBytes += int64(len(blob))
	er.res.CheckpointCycles += d
	er.stall(telemetry.SpanCheckpoint, it, d, int64(len(blob)), &er.barrier)
	return nil
}

// boundary processes the iteration boundary before iteration it: every
// pending fault event whose cycle has been reached is applied — link
// events mutate the interconnect immediately, node losses trigger a
// recovery. Returns the iteration to resume at when a recovery rewound
// the run, -1 otherwise.
func (er *elasticRun) boundary(it int) (int, error) {
	var losses []fault.Event
	for er.nextEvent < len(er.events) && er.events[er.nextEvent].Cycle <= er.now() {
		e := er.events[er.nextEvent]
		er.nextEvent++
		er.res.FaultsInjected++
		if er.pr != nil {
			arg := e.Node
			if e.Kind != fault.NodeLoss {
				arg = e.Src
			}
			er.pr.instant(telemetry.SpanFault, er.pr.base+e.Cycle, int64(arg), int64(e.Kind))
		}
		switch e.Kind {
		case fault.NodeLoss:
			losses = append(losses, e)
		case fault.LinkDegrade:
			if err := er.deg.Slow(e.Src, e.Dst, e.Factor); err != nil {
				return 0, err
			}
		case fault.LinkOutage:
			if err := er.deg.CutRoute(e.Src, e.Dst); err != nil {
				return 0, err
			}
			if err := er.deg.Verify(er.live); err != nil {
				return 0, fmt.Errorf("scaleout: %s is unrecoverable: %w", e, err)
			}
		}
	}
	if len(losses) == 0 {
		return -1, nil
	}
	return er.recover(losses, it)
}

// recover handles one or more node losses surfacing at the boundary
// before iteration bIter: detection stall, restore from the newest ring
// checkpoint (or a from-scratch restart when none exists), rollback of
// everything since, re-partition migration of the shards that changed
// owners, and a fresh baseline checkpoint at the resume point. Returns
// the iteration the run resumes at.
func (er *elasticRun) recover(losses []fault.Event, bIter int) (int, error) {
	liveBefore := len(er.surv)
	oldLive := append([]bool(nil), er.live...)
	oldSurv := append([]int(nil), er.surv...)
	for _, e := range losses {
		if !er.live[e.Node] {
			return 0, fmt.Errorf("scaleout: %s kills an already-dead node", e)
		}
		er.live[e.Node] = false
		er.res.NodesLost++
	}
	er.surv = er.surv[:0]
	for i, l := range er.live {
		if l {
			er.surv = append(er.surv, i)
		}
	}
	if len(er.surv) == 0 {
		return 0, fmt.Errorf("scaleout: no survivors after %s", losses[0])
	}
	if err := er.deg.Verify(er.live); err != nil {
		return 0, fmt.Errorf("scaleout: survivors are disconnected: %w", err)
	}

	// Detection: the heartbeat/membership latency before survivors act.
	er.res.RecoveryCycles += er.detect
	er.stall(telemetry.SpanDetect, bIter, er.detect, int64(losses[0].Node), &er.barrier)

	// Restore from the newest ring checkpoint; with an empty ring the
	// survivors restart the compaction phase from scratch (the
	// no-checkpointing degenerate cadence).
	var ck *CheckpointState
	resume := 0
	if len(er.ring) > 0 {
		ent := &er.ring[len(er.ring)-1]
		dec, err := UnmarshalCheckpoint(ent.blob)
		if err != nil {
			return 0, fmt.Errorf("scaleout: recovery checkpoint (iteration %d): %w", ent.iter, err)
		}
		ck = dec
		resume = ck.ResumeIter
		d := sim.Cycle(float64(len(ent.blob)) / er.ckBPC)
		er.res.RecoveryCycles += d
		er.stall(telemetry.SpanRestore, resume, d, int64(len(ent.blob)), &er.barrier)
	}
	er.res.LostIterations += int64(bIter-resume) * int64(liveBefore)

	if err := er.rollback(ck, resume); err != nil {
		return 0, err
	}

	// Re-partition: every MacroNode whose owner changed under the new
	// membership moves from its replica holder (the next live node after
	// the old owner) to the new owner, over the degraded interconnect.
	if resume < er.iters {
		move := mat(er.n)
		iter := &er.tr.Iterations[resume]
		for i := range iter.Nodes {
			nd := &iter.Nodes[i]
			ob := ownerUnder(er.cfg.Partitioner, nd.Key, er.k1, er.n, oldLive, oldSurv)
			oa := er.ownerOf(nd.Key)
			if ob == oa {
				continue
			}
			src := ob
			if !er.live[src] {
				src = er.nextLive(src)
			}
			if src != oa {
				move[src][oa] += int64(nd.D1 + nd.D2)
			}
		}
		mx := er.exchangeNow(move)
		if mx.TotalBytes > 0 {
			er.exchangedBytes += mx.TotalBytes
			er.res.RepartitionBytes += mx.TotalBytes
			er.stall(telemetry.SpanRepartition, resume, mx.Cycles, mx.TotalBytes, &er.exchange)
		}
	}

	// The old ring describes the dead membership; replace it with a free
	// baseline at the resume point (the state is already in memory), so a
	// later loss restores here instead of replaying from scratch.
	blob, err := er.snapshot(resume)
	if err != nil {
		return 0, err
	}
	er.ring = er.ring[:0]
	er.ring = append(er.ring, ringEntry{iter: resume, blob: blob})
	er.res.Recoveries++
	return resume, nil
}

// rollback restores every node to the checkpoint state at iteration
// resume: survivors continue from there, casualties stay frozen at their
// own last committed iteration. The discarded durations and logical
// traffic counters are rewound; the phase clock is not (lost time is the
// recovery overhead).
func (er *elasticRun) rollback(ck *CheckpointState, resume int) error {
	for i, t := range er.traces {
		if ck == nil {
			er.traces[i] = &trace.Trace{K: er.tr.K}
		} else if len(t.Iterations) > resume {
			t.Iterations = t.Iterations[:resume]
		}
	}
	if err := er.loadEngines(er.traces, ck); err != nil {
		return err
	}
	if ck != nil {
		er.localTNs = ck.Elastic.LocalTNs
		er.remoteTNs = ck.Elastic.RemoteTNs
		er.haloBytes = ck.Elastic.HaloBytes
	} else {
		er.localTNs, er.remoteTNs, er.haloBytes = 0, 0, 0
	}
	return nil
}

// shardRange splits global iterations [from, to) under the current
// membership, appending each live node's sub-iterations to its trace and
// accumulating the committed traffic counters; it returns the halo
// matrices.
func (er *elasticRun) shardRange(from, to int) [][][]int64 {
	halos := make([][][]int64, to-from)
	for j := range halos {
		it := from + j
		halos[j] = mat(er.n)
		subs, l, r, hb := shardIteration(&er.tr.Iterations[it], er.n, er.ownerOf, halos[j])
		er.localTNs += l
		er.remoteTNs += r
		er.haloBytes += hb
		for o, t := range er.traces {
			if !er.live[o] {
				continue
			}
			if it == 0 {
				t.Quantiles = subs[o].Quantiles
			}
			t.Iterations = append(t.Iterations, subs[o])
		}
	}
	return halos
}

// runBSP is the elastic BSP discipline: golden supersteps over the live
// membership, with fault boundaries, periodic captures and recoveries
// spliced between them. Fault-free it reproduces the legacy BSP schedule
// plus the checkpoint stalls. Supersteps advance in pre-stepped chunks
// (core.chunk) that never cross a capture boundary; a fault boundary
// inside a chunk stays conservative because a recovery rolls engines,
// durations, traces and counters back wholesale (rollback). The only
// chunk state with no superstep-at-a-time counterpart is the un-placed
// telemetry of iterations pre-stepped past the detection boundary, which
// is dropped (dropBuffered) before the recovery records its own spans.
func (er *elasticRun) runBSP() error {
	k := er.chunk()
	it := 0
	for {
		cont, err := er.boundary(it)
		if err != nil {
			return err
		}
		if cont >= 0 {
			it = cont
			continue
		}
		if it == er.iters {
			return nil
		}
		if er.captureDue(it) {
			if err := er.capture(it); err != nil {
				return err
			}
		}
		end := min(it+k, er.segmentEnd(it))
		halos := er.shardRange(it, end)
		er.prestep(it, end)
		for j := it; j < end; j++ {
			if j > it {
				if er.pr != nil && er.pendingLoss() {
					for i := 0; i < er.n; i++ {
						if er.live[i] {
							er.pr.dropBuffered(i, j)
						}
					}
				}
				if cont, err = er.boundary(j); err != nil {
					return err
				}
				if cont >= 0 {
					break
				}
			}
			er.superstep(j, halos[j-it])
		}
		if cont >= 0 {
			it = cont
		} else {
			it = end
		}
	}
}

// runOverlapped is the elastic overlapped discipline: the event-driven
// halo-streaming schedule runs in segments bounded by checkpoint
// boundaries (a coordinated checkpoint is a global synchronization, so a
// link barrier + sync barrier close each segment). A segment is executed
// speculatively; if a node loss lands inside it, the segment's recording
// is rewound, the committed window up to the detection boundary is
// charged as compute (the simplification: an overlapped window does not
// decompose further once discarded), and the shared recovery path takes
// over. With CheckpointEvery == 0 the whole phase is one segment and a
// fault-free run reproduces the legacy overlapped schedule exactly.
func (er *elasticRun) runOverlapped() error {
	it := 0
	for {
		cont, err := er.boundary(it)
		if err != nil {
			return err
		}
		if cont >= 0 {
			it = cont
			continue
		}
		if it == er.iters {
			return nil
		}
		if it > 0 {
			er.barriers(it - 1)
		}
		if er.captureDue(it) {
			if err := er.capture(it); err != nil {
				return err
			}
		}
		end := er.segmentEnd(it)

		var marks probeMark
		if er.pr != nil {
			marks = er.pr.mark()
		}
		seg := er.overlap(it, end, er.shardRange(it, end), er.now(), it)

		// A loss inside the segment window invalidates it: rewind the
		// speculative recording, commit the window up to the detection
		// boundary as compute, and recover.
		var fc sim.Cycle = -1
		for _, ev := range er.events[er.nextEvent:] {
			if ev.Cycle > er.now()+seg.makespan {
				break
			}
			if ev.Kind == fault.NodeLoss {
				fc = ev.Cycle
				break
			}
		}
		if fc >= 0 {
			bj := -1
			for j := range seg.boundary {
				if er.now()+seg.boundary[j] >= fc {
					bj = j
					break
				}
			}
			if bj >= 0 {
				if er.pr != nil {
					er.pr.rewind(marks)
				}
				er.commit(&segOutcome{compute: seg.boundary[bj], makespan: seg.boundary[bj]}, int64(it))
				cont, err := er.boundary(it + bj + 1)
				if err != nil {
					return err
				}
				if cont >= 0 {
					it = cont
					continue
				}
				return fmt.Errorf("scaleout: fault at cycle %d detected but not consumed", fc)
			}
			// The loss lands past the segment's last iteration boundary:
			// commit the segment and let the next boundary pass detect it.
		}
		er.commit(seg, int64(it))
		it = end
	}
}
