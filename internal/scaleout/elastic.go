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
//     into memory, replacing the previous capture, and charges
//     len(blob)/CheckpointBytesPerCycle as a global stall — the
//     coordinated-checkpoint cost.
//   - fault.Plan events are applied at iteration boundaries, the first
//     point a lockstep run can act on them. Link events mutate the
//     Degraded interconnect in place (every later exchange sees the lost
//     bandwidth or the detour). A node loss is detected at the next
//     boundary: the plan's DetectCycles stall, then every node —
//     survivors live, casualties frozen — is restored from the newest
//     blob, the work since that checkpoint is discarded, and the
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
// The protocol is the runtime's recovery state (below) plus its fault
// and capture hooks, not a runtime of its own. An elastic configuration
// wraps the network in topo.Degraded, gives the core a live mask and
// wraps the owner in the survivor failover; both loops of runtime.go then
// call faults and capture at every boundary, a BSP stretch never crosses a
// capture boundary and an overlapped segment ends at one. A fault-free
// configuration with CheckpointEvery == 0 leaves the recovery state zero:
// the hooks find nothing to do and the network stays unwrapped.
package scaleout

import (
	"fmt"

	"nmppak/internal/dna"
	"nmppak/internal/fault"
	"nmppak/internal/sim"
	"nmppak/internal/telemetry"
	"nmppak/internal/topo"
)

// DefaultCheckpointBytesPerCycle prices checkpoint capture and restore
// I/O when Config.CheckpointBytesPerCycle is zero: 16 B/cycle is about
// 25.6 GB/s at the modeled 1.6 GHz — a striped local NVMe target.
const DefaultCheckpointBytesPerCycle = 16

// savedCheckpoint is the newest captured checkpoint: the iteration it
// resumes at and the marshaled blob (real bytes — restore decodes them
// through UnmarshalCheckpoint, so recovery exercises the same hardened
// path an on-disk blob does).
type savedCheckpoint struct {
	iter int
	blob []byte
}

// recovery is the runtime's elastic state — the membership and its
// failover, the degradable network, the fault plan and the newest
// checkpoint. It stays zero unless cfg.elastic(), and while it is zero
// every hook below is a no-op: no events to apply, nothing to capture. The
// protocol stalls — checkpoint captures, detection and restore — are
// charged to the barrier bucket, re-partition migrations to exchange;
// the recovery bookkeeping accumulates on the run's Result.
type recovery struct {
	deg   *topo.Degraded
	every int     // checkpoint cadence (0 = none)
	ckBPC float64 // checkpoint capture/restore bytes per cycle

	events    []fault.Event // plan events in application order
	nextEvent int           // first pending event
	detect    sim.Cycle     // failure-detection latency per recovery

	home  func(dna.Kmer) int // owner before failover
	surv  []int              // live node indices, ascending (failover hash targets)
	saved savedCheckpoint    // blob nil until the first capture
}

// startRecovery puts the run on the elastic protocol: a degradable
// wrapper of the network (fault-free runs never pay for it), a live mask
// over every node, and the failover wrapped around the owner.
func (r *runtime) startRecovery() {
	r.deg = topo.NewDegraded(r.net)
	r.net = r.deg
	r.every = r.cfg.CheckpointEvery
	r.ckBPC = r.cfg.CheckpointBytesPerCycle
	if r.ckBPC <= 0 {
		r.ckBPC = DefaultCheckpointBytesPerCycle
	}
	if f := r.cfg.Faults; f != nil {
		r.events = f.Sorted()
		r.detect = f.DetectCycles
	}
	r.live = make([]bool, r.n)
	for i := range r.live {
		r.live[i] = true
		r.surv = append(r.surv, i)
	}
	r.home = r.owner
	r.owner = func(key dna.Kmer) int { return failover(r.home(key), key, r.live, r.surv) }
}

// failover resolves a key under a membership: its home owner while that
// node lives, otherwise a deterministic key-hashed survivor — every node
// computes the same failover assignment without coordination, like the
// base partitioners.
func failover(home int, key dna.Kmer, live []bool, surv []int) int {
	if live[home] {
		return home
	}
	return surv[mix64(uint64(key))%uint64(len(surv))]
}

// nextLive is the replica node holding the dead node's shard copy in the
// recovery model: the next live node in ring order.
func (r *runtime) nextLive(i int) int {
	for d := 1; d <= r.n; d++ {
		if j := (i + d) % r.n; r.live[j] {
			return j
		}
	}
	return i
}

// pendingLoss reports whether the next boundary pass will act on a node
// loss — an event already due at the current phase time.
func (r *runtime) pendingLoss() bool {
	for _, ev := range r.events[r.nextEvent:] {
		if ev.Cycle > r.now() {
			return false
		}
		if ev.Kind == fault.NodeLoss {
			return true
		}
	}
	return false
}

// dropPrestepped discards the un-placed telemetry of the iterations the
// BSP loop pre-stepped from it on, on every node whose engine ran past
// it, when the boundary before it recovers from a node loss or fails: a
// recovery rolls those iterations back and a failed run never prices
// them, so their spans must not survive on the tracks.
func (r *runtime) dropPrestepped(it int) {
	if r.pr == nil {
		return
	}
	for i, e := range r.engines {
		if e.Next() > it {
			r.pr.dropBuffered(i, it)
		}
	}
}

// lossIn finds the first node loss that lands inside an overlapped
// segment starting at the current phase time: bj is the first segment
// iteration whose boundary the loss's cycle fc reaches, -1 when there is
// none (a loss past the segment's last boundary is detected by the next
// boundary pass instead).
func (r *runtime) lossIn(seg *segOutcome) (bj int, fc sim.Cycle) {
	for _, ev := range r.events[r.nextEvent:] {
		if ev.Cycle > r.now()+seg.makespan {
			break
		}
		if ev.Kind == fault.NodeLoss {
			for j, b := range seg.boundary {
				if r.now()+b >= ev.Cycle {
					return j, ev.Cycle
				}
			}
			break
		}
	}
	return -1, 0
}

// capture is the checkpoint hook at the boundary before iteration it:
// every CheckpointEvery iterations it replaces the newest checkpoint and
// charges the capture stall (never re-capturing a boundary a recovery
// already took a baseline at).
func (r *runtime) capture(it int) error {
	if r.every <= 0 || it == 0 || it%r.every != 0 || (r.saved.blob != nil && r.saved.iter >= it) {
		return nil
	}
	blob, err := r.checkpoint(it)
	if err != nil {
		return err
	}
	r.saved = savedCheckpoint{iter: it, blob: blob}
	d := sim.Cycle(float64(len(blob)) / r.ckBPC)
	r.res.Checkpoints++
	r.res.CheckpointBytes += int64(len(blob))
	r.res.CheckpointCycles += d
	r.stall(telemetry.SpanCheckpoint, it, d, int64(len(blob)), &r.barrier)
	return nil
}

// faults is the fault hook at the boundary before iteration it: every
// pending fault event whose cycle has been reached is applied — link
// events mutate the interconnect immediately, node losses trigger a
// recovery. Returns the iteration to resume at when a recovery rewound
// the run, -1 otherwise.
func (r *runtime) faults(it int) (int, error) {
	var losses []fault.Event
	for r.nextEvent < len(r.events) && r.events[r.nextEvent].Cycle <= r.now() {
		e := r.events[r.nextEvent]
		r.nextEvent++
		r.res.FaultsInjected++
		if r.pr != nil {
			arg := e.Node
			if e.Kind != fault.NodeLoss {
				arg = e.Src
			}
			r.pr.instant(telemetry.SpanFault, r.pr.base+e.Cycle, int64(arg), int64(e.Kind))
		}
		switch e.Kind {
		case fault.NodeLoss:
			losses = append(losses, e)
		case fault.LinkDegrade:
			if err := r.deg.Slow(e.Src, e.Dst, e.Factor); err != nil {
				return 0, err
			}
		case fault.LinkOutage:
			if err := r.deg.CutRoute(e.Src, e.Dst); err != nil {
				return 0, err
			}
			if err := r.deg.Verify(r.live); err != nil {
				return 0, fmt.Errorf("scaleout: %s is unrecoverable: %w", e, err)
			}
		}
	}
	if len(losses) == 0 {
		return -1, nil
	}
	return r.recover(losses, it)
}

// recover handles one or more node losses surfacing at the boundary
// before iteration bIter: detection stall, restore from the newest
// checkpoint (or a from-scratch restart when none exists), rollback of
// everything since, re-partition migration of the shards that changed
// owners, and a fresh baseline checkpoint at the resume point. Returns
// the iteration the run resumes at.
func (r *runtime) recover(losses []fault.Event, bIter int) (int, error) {
	liveBefore := len(r.surv)
	oldLive := append([]bool(nil), r.live...)
	oldSurv := append([]int(nil), r.surv...)
	for _, e := range losses {
		if !r.live[e.Node] {
			return 0, fmt.Errorf("scaleout: %s kills an already-dead node", e)
		}
		r.live[e.Node] = false
		r.res.NodesLost++
	}
	r.surv = r.surv[:0]
	for i, l := range r.live {
		if l {
			r.surv = append(r.surv, i)
		}
	}
	if len(r.surv) == 0 {
		return 0, fmt.Errorf("scaleout: no survivors after %s", losses[0])
	}
	if err := r.deg.Verify(r.live); err != nil {
		return 0, fmt.Errorf("scaleout: survivors are disconnected: %w", err)
	}

	// Detection: the heartbeat/membership latency before survivors act.
	r.res.RecoveryCycles += r.detect
	r.stall(telemetry.SpanDetect, bIter, r.detect, int64(losses[0].Node), &r.barrier)

	// Restore from the newest checkpoint; without one the survivors
	// restart the compaction phase from scratch (the no-checkpointing
	// degenerate cadence).
	var ck *CheckpointState
	resume := 0
	if ent := &r.saved; ent.blob != nil {
		dec, err := UnmarshalCheckpoint(ent.blob)
		if err != nil {
			return 0, fmt.Errorf("scaleout: recovery checkpoint (iteration %d): %w", ent.iter, err)
		}
		ck = dec
		resume = ck.ResumeIter
		d := sim.Cycle(float64(len(ent.blob)) / r.ckBPC)
		r.res.RecoveryCycles += d
		r.stall(telemetry.SpanRestore, resume, d, int64(len(ent.blob)), &r.barrier)
	}
	r.res.LostIterations += int64(bIter-resume) * int64(liveBefore)

	if err := r.rollback(ck, resume); err != nil {
		return 0, err
	}

	// Re-partition: every MacroNode whose owner changed under the new
	// membership moves from its replica holder (the next live node after
	// the old owner) to the new owner, over the degraded interconnect.
	if resume < r.iters {
		move := mat(r.n)
		iter := &r.tr.Iterations[resume]
		for i := range iter.Nodes {
			nd := &iter.Nodes[i]
			ob := failover(r.home(nd.Key), nd.Key, oldLive, oldSurv)
			oa := r.owner(nd.Key)
			if ob == oa {
				continue
			}
			src := ob
			if !r.live[src] {
				src = r.nextLive(src)
			}
			if src != oa {
				move[src][oa] += int64(nd.D1 + nd.D2)
			}
		}
		mx := r.exchangeNow(move)
		if mx.TotalBytes > 0 {
			r.exchangedBytes += mx.TotalBytes
			r.res.RepartitionBytes += mx.TotalBytes
			r.stall(telemetry.SpanRepartition, resume, mx.Cycles, mx.TotalBytes, &r.exchange)
		}
	}

	// The old checkpoint describes the dead membership; replace it with a
	// free baseline at the resume point (the state is already in memory),
	// so a later loss restores here instead of replaying from scratch.
	blob, err := r.checkpoint(resume)
	if err != nil {
		return 0, err
	}
	r.saved = savedCheckpoint{iter: resume, blob: blob}
	r.res.Recoveries++
	return resume, nil
}

// rollback restores every node to the checkpoint state at iteration
// resume: survivors continue from there, casualties stay frozen at their
// own last committed iteration. The discarded durations, sharded
// iterations and logical traffic counters are rewound; the phase clock is
// not (lost time is the recovery overhead). The sharded prefix is never
// rewound past a checkpoint after its capture, so truncate(resume) keeps
// exactly the iterations whose traffic that checkpoint's run had counted.
func (r *runtime) rollback(ck *CheckpointState, resume int) error {
	r.st.truncate(resume)
	return r.loadEngines(r.st.Traces, ck)
}
