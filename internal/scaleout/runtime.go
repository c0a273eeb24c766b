// The distributed compaction runtime: N stepwise per-node NMP engines
// (nmp.Engine) and the interconnect composed on one global timeline. One
// driver, runtime, runs the compaction phase for every configuration. Its
// runs differ only in who owns a key at an iteration — the static
// partitioner, a migrating bucket table (rebalance.go) or a failover hash
// over the survivors (elastic.go) — and in three boundary hooks, each a
// no-op when its feature is off: fault events, the periodic capture and
// the migration decision. It runs one of two disciplines, each with
// exactly one loop:
//
//   - BSP (Config.Overlap == false, the default): every iteration is a
//     global superstep — all live nodes compute, the slowest paces the
//     step, the iteration's halo exchange runs serially on the links, and
//     a log-tree barrier plus the NMP runtime's own sync barrier close the
//     step. This reproduces the original aggregation model cycle for
//     cycle (TestGoldenEquivalence pins it). The loop (runtime.bsp)
//     pre-steps the whole stretch up to the next hook boundary on the
//     worker pool (core.prestep), then prices each superstep of it in
//     order from the recorded durations (core.superstep).
//   - Overlapped (Config.Overlap == true): a node that finishes iteration
//     i immediately streams its outgoing halo bytes while lagging nodes
//     are still computing, and only the dependent work waits — node j may
//     begin iteration i+1 as soon as (a) its own iteration i ended plus
//     the local sync barrier and (b) every iteration-i halo message
//     destined to j has been delivered. There is no global barrier; halo
//     messages route hop-by-hop through the same contended topology links
//     (topo.Flight) that price topo.Exchange. The loop
//     (runtime.overlapped) runs one segment of this event schedule
//     (core.overlap, runtime_parallel.go) per stretch between hook
//     boundaries — a single segment when nothing is captured or migrated
//     — and pre-steps each segment whole before draining its schedule.
//
// In both modes each engine advances on its local back-to-back clock
// (identical to nmp.Simulate), so per-iteration durations — and therefore
// every per-node Result and every migration decision, which reads only
// durations — are identical across modes and across worker counts; the
// modes differ only in how those durations and the halo traffic compose
// on the global timeline. That makes the BSP/overlap comparison exact:
// same compute, different schedule. It also makes a paused run's engines
// and recorded durations its whole non-derivable state: a restore runs
// the discipline's own loop over the recorded prefix without re-stepping
// the engines (newRuntime) and so derives everything else again.
package scaleout

import (
	"fmt"

	"nmppak/internal/dna"
	"nmppak/internal/nmp"
	"nmppak/internal/par"
	"nmppak/internal/sim"
	"nmppak/internal/telemetry"
	"nmppak/internal/topo"
	"nmppak/internal/trace"
)

// compactOutcome is the compaction phase as scheduled by the runtime.
type compactOutcome struct {
	Phase          PhaseCycles
	LinkBarrier    sim.Cycle // interconnect share of Phase.Barrier
	ExchangedBytes int64
	NMP            []*nmp.Result
	// Durations[i][it] is node i's compute time for iteration it.
	Durations [][]sim.Cycle
}

// core is the ownership-independent half of the runtime: the per-node
// engines with their recorded durations, the telemetry glue, and the
// phase clock. Accounting invariant: compute + exchange + barrier is the
// compaction-phase clock at every iteration boundary — halo exchanges and
// migrations in exchange, link and sync barriers (and the elastic
// protocol's stalls) in barrier, with the barrier bucket's interconnect
// share tracked in linkBarrier.
type core struct {
	cfg      Config
	net      topo.Network
	n, iters int
	next     int // first iteration not yet executed

	engines   []*nmp.Engine
	durations [][]sim.Cycle // durations[i][it]: node i's compute time for it
	live      []bool        // nil: every node is live

	compute, exchange, barrier sim.Cycle
	linkBarrier                sim.Cycle
	exchangedBytes             int64

	durs []sim.Cycle // superstep scratch
	// pr is the run's telemetry glue; nil disables every recording site.
	pr *probes
}

func newCore(cfg Config, net topo.Network, iters int) core {
	c := core{
		cfg: cfg, net: net, n: cfg.Nodes, iters: iters,
		engines:   make([]*nmp.Engine, cfg.Nodes),
		durations: make([][]sim.Cycle, cfg.Nodes),
		durs:      make([]sim.Cycle, cfg.Nodes),
	}
	for i := range c.durations {
		c.durations[i] = make([]sim.Cycle, iters)
	}
	return c
}

// loadEngines (re)builds every node's engine over its trace: fresh at
// iteration 0 when ck is nil, otherwise restored from the blob's engine
// snapshot together with the recorded durations.
func (c *core) loadEngines(traces []*trace.Trace, ck *CheckpointState) error {
	for i := range c.engines {
		var e *nmp.Engine
		var err error
		clear(c.durations[i])
		if ck == nil {
			e, err = nmp.NewEngine(traces[i], c.cfg.NMP)
		} else {
			e, err = nmp.ResumeEngine(traces[i], c.cfg.NMP, ck.Engines[i])
			copy(c.durations[i], ck.Durations[i])
		}
		if err != nil {
			return err
		}
		c.engines[i] = e
	}
	if c.pr != nil {
		c.pr.attach(c.engines)
	}
	return nil
}

// setProbes attaches (or, with nil, skips) the run's telemetry glue.
func (c *core) setProbes(pr *probes) {
	c.pr = pr
	if pr != nil {
		pr.attach(c.engines)
		if pr.buf == nil {
			pr.enableBuffer(c.n, c.iters)
		}
	}
}

func (c *core) isLive(i int) bool { return c.live == nil || c.live[i] }

// now is the compaction-phase clock.
func (c *core) now() sim.Cycle { return c.compute + c.exchange + c.barrier }

// step advances node i by one iteration on its local clock, records the
// duration and buffers the step's telemetry for later placement.
func (c *core) step(i int) {
	e := c.engines[i]
	it := e.Next()
	if c.pr != nil {
		c.pr.beforeStep(i, it, e)
	}
	ti := e.StepIteration(e.NextStart())
	c.durations[i][it] = ti.End - ti.Start
	if c.pr != nil {
		c.pr.afterStep(i, it, e, ti)
	}
}

// prestep runs every live engine from its cursor up to iteration to on
// the worker pool; an engine already past to — a restored one whose
// recorded prefix the loop is replaying — is not stepped. Each worker
// owns node i exclusively, so the engine, its duration row, its DRAM
// tracks and its step buffer stay single-writer.
func (c *core) prestep(to int) {
	par.ForIdx(c.n, c.cfg.Workers, func(i int) {
		if c.isLive(i) {
			for c.engines[i].Next() < to {
				c.step(i)
			}
		}
	})
}

// exchangeNow prices one all-to-all at the current phase clock.
func (c *core) exchangeNow(b [][]int64) topo.ExchangeStats {
	if c.pr != nil {
		return topo.ExchangeProbed(c.net, b, c.pr.linkAt(c.pr.base+c.now()))
	}
	return topo.Exchange(c.net, b)
}

// stall charges a d-cycle whole-machine wait to bucket and records it on
// the runtime track and every live node track.
func (c *core) stall(kind telemetry.SpanKind, it int, d sim.Cycle, bytes int64, bucket *sim.Cycle) {
	if d <= 0 {
		return
	}
	if c.pr != nil {
		c.pr.stall(kind, it, c.pr.base+c.now(), d, bytes, c.live)
	}
	*bucket += d
}

// barriers charges the link and sync barriers that close superstep it.
func (c *core) barriers(it int) {
	lb := c.net.BarrierCycles()
	c.stall(telemetry.SpanLinkBarrier, it, lb, 0, &c.barrier)
	c.linkBarrier += lb
	c.stall(telemetry.SpanSyncBarrier, it, c.cfg.NMP.SyncBarrierCycles, 0, &c.barrier)
}

// superstep prices iteration it as a BSP superstep from the recorded
// durations: the slowest live node paces the compute, the halo exchange
// runs on the network, and — between supersteps — the barrier pair
// closes the step, gating every live node's next iteration on the
// slowest one.
func (c *core) superstep(it int, halo [][]int64) {
	var slowest sim.Cycle
	maxIdx := 0
	for i := range c.durs {
		c.durs[i] = 0
		if c.isLive(i) {
			c.durs[i] = c.durations[i][it]
		}
		if c.durs[i] > slowest {
			slowest, maxIdx = c.durs[i], i
		}
	}
	if c.pr != nil {
		c.pr.superstepCompute(it, c.pr.base+c.now(), c.durs, slowest, c.live)
	}
	c.compute += slowest
	hx := c.exchangeNow(halo)
	c.exchangedBytes += hx.TotalBytes
	c.stall(telemetry.SpanExchangeWait, it, hx.Cycles, hx.TotalBytes, &c.exchange)
	if it+1 < c.iters {
		c.barriers(it)
		if c.pr != nil {
			for i := 0; i < c.n; i++ {
				if c.isLive(i) {
					c.pr.c.AddDep(i, it+1, telemetry.BoundBarrier, maxIdx)
				}
			}
		}
	}
}

// outcome seals the engines and reports the phase as accounted so far.
func (c *core) outcome() *compactOutcome {
	out := &compactOutcome{
		Phase:          PhaseCycles{Compute: c.compute, Exchange: c.exchange, Barrier: c.barrier},
		LinkBarrier:    c.linkBarrier,
		ExchangedBytes: c.exchangedBytes,
		Durations:      c.durations,
		NMP:            make([]*nmp.Result, c.n),
	}
	for i, e := range c.engines {
		out.NMP[i] = e.Result()
	}
	return out
}

// runtime is the compaction driver. What distinguishes one run from
// another is who owns a key at an iteration, and that is picked once, at
// construction, as owner: the partitioner's static owner, the migrating
// bucket table of a RebalancePartitioner (rebalance.go) and — under an
// elastic configuration — either one wrapped in the failover hash over
// the survivors (elastic.go). The sharded trace grows stretch by stretch
// under that owner, and the two loops below call three boundary hooks,
// each a no-op when its feature is off: fault events (faults), the
// periodic capture (capture) and the migration decision (migrate).
type runtime struct {
	core
	tr  *trace.Trace
	res *Result // the prelude outcome: blob header and run accounting

	owner func(dna.Kmer) int
	// st holds the per-node sub-traces, halo matrices and traffic of the
	// iterations sharded so far (len(st.Halo) of them).
	st *ShardedTrace

	rb       *rebalancer // nil unless the partitioner migrates
	recovery             // elastic state; zero unless cfg.elastic()

	digested            bool // cfgDigest/trDigest computed (first capture)
	cfgDigest, trDigest uint64
}

// newRuntime builds the compaction driver at iteration 0 or — with a
// non-nil ck — at an external blob's pause point, reporting into the
// prelude Result res. A restore loads the engines over the executed
// prefix sharded under the ownership the run started from, then rebuilds
// every derived quantity by running the discipline's own loop over that
// prefix with the recorded durations standing in for the engine steps:
// the BSP loop replays it here, before any probes are attached; the
// overlapped loop replays it in finish, from iteration 0. Under a
// migrating table the replay re-shards the prefix, so the migrations,
// the halo matrices and the traffic counters are derived again rather
// than loaded.
func newRuntime(tr *trace.Trace, net topo.Network, cfg Config, res *Result, ck *CheckpointState) (*runtime, error) {
	r := &runtime{core: newCore(cfg, net, len(tr.Iterations)), tr: tr, res: res, st: newShardedTrace(tr, cfg.Nodes)}
	k1, n, p := tr.K-1, cfg.Nodes, cfg.Partitioner
	r.owner = func(key dna.Kmer) int { return p.Owner(key, k1, n) }
	if rp, ok := p.(*RebalancePartitioner); ok {
		r.rb = newRebalancer(tr, rp, n)
		r.owner = r.rb.owner
	}
	if cfg.elastic() {
		r.startRecovery()
	}
	if ck != nil {
		r.st.extend(tr, ck.ResumeIter, r.owner)
	}
	if err := r.loadEngines(r.st.Traces, ck); err != nil {
		return nil, err
	}
	if ck == nil {
		return r, nil
	}
	if r.rb != nil {
		r.st.truncate(0) // the replay re-shards it under the migrating table
	}
	if cfg.Overlap {
		r.next = ck.ResumeIter
		return r, nil
	}
	return r, r.bsp(ck.ResumeIter)
}

// finish executes the remaining iterations under the configured
// discipline, reports the run's traffic on res and seals the engines.
func (r *runtime) finish() (*compactOutcome, error) {
	var err error
	if r.cfg.Overlap {
		err = r.overlapped()
	} else {
		err = r.bsp(r.iters)
	}
	if err != nil {
		return nil, err
	}
	r.res.HaloBytes = r.st.HaloBytes
	r.res.RemoteTNFrac = r.st.RemoteTNFrac()
	return r.outcome(), nil
}

// stop is the first hook boundary after iteration it — the next capture
// or migration point — or the end of the phase. BSP stretches and
// overlapped segments never cross one.
func (r *runtime) stop(it int) int {
	s := r.iters
	if r.every > 0 {
		s = min(s, (it/r.every+1)*r.every)
	}
	if r.rb != nil {
		s = min(s, (it/r.rb.p.Every+1)*r.rb.p.Every)
	}
	return s
}

// boundary runs the hooks at the boundary before an iteration the loop
// is about to execute: the periodic capture, then the migration decision.
func (r *runtime) boundary(it int) error {
	if err := r.capture(it); err != nil {
		return err
	}
	r.migrate(it)
	return nil
}

// bsp executes iterations [next, to) as BSP supersteps. Every boundary
// first applies the due fault events; a recovery rewinds the loop to its
// resume point. At the start of a stretch the capture and migration
// hooks run, then the stretch — up to min(stop(it), to) — is sharded and
// pre-stepped on the worker pool, and each superstep is priced in order
// from the recorded durations. A fault boundary inside a stretch is
// safe because a recovery rolls engines, durations, traces and counters
// back wholesale (rollback); the only stretch state with no
// superstep-at-a-time counterpart is the un-placed telemetry of the
// iterations pre-stepped past it, dropped before the recovery records
// its own spans (and when the boundary fails, so a failed run's trace
// ends at the last priced superstep). It is also where every run pauses
// — Checkpoint, under either discipline, and Session.Step advance
// through it, so the engines are stepped under the same ownership
// history — and a BSP restore replays its recorded prefix through it.
func (r *runtime) bsp(to int) error {
	it, end := r.next, r.next // iterations [it, end) are pre-stepped
	for {
		if it < end && r.pendingLoss() {
			r.dropPrestepped(it)
		}
		resume, err := r.faults(it)
		if err != nil {
			if it < end {
				r.dropPrestepped(it)
			}
			return err
		}
		if resume >= 0 {
			it, end = resume, resume
			continue
		}
		if it == to {
			break
		}
		if it == end {
			if err := r.boundary(it); err != nil {
				return err
			}
			end = min(r.stop(it), to)
			r.st.extend(r.tr, end, r.owner)
			r.prestep(end)
		}
		r.superstep(it, r.st.Halo[it])
		r.measure(it)
		it++
	}
	r.next = to
	return nil
}

// overlapped executes the whole phase under the overlapped discipline:
// one event-driven segment (core.overlap) per stretch between hook
// boundaries, so a run without captures is a single segment. A
// coordinated capture is a global synchronization, so the link and sync
// barriers close each segment before the next, and each segment's
// iterations are measured for the migration decision at its end. A
// restored run replays the iterations it already holds durations for,
// re-sharding them under a migrating table. A segment runs
// speculatively: when a node loss lands inside it, its recording is
// rewound, the window up to the detection boundary is committed as
// compute (a discarded overlapped window does not decompose further) and
// the recovery takes over.
func (r *runtime) overlapped() error {
	replay := r.next
	for it := 0; ; {
		resume, err := r.faults(it)
		if err != nil {
			return err
		}
		if resume >= 0 {
			it = resume
			continue
		}
		if it == r.iters {
			break
		}
		if it > 0 {
			r.barriers(it - 1)
		}
		if err := r.boundary(it); err != nil {
			return err
		}
		end := r.stop(it)
		r.st.extend(r.tr, end, r.owner)
		var marks probeMark
		if r.pr != nil {
			marks = r.pr.mark()
		}
		seg := r.overlap(it, end, r.st.Halo[it:end], r.now(), replay)
		if bj, fc := r.lossIn(seg); bj >= 0 {
			if r.pr != nil {
				r.pr.rewind(marks)
			}
			r.commit(&segOutcome{compute: seg.boundary[bj], makespan: seg.boundary[bj]}, int64(it))
			if it, err = r.faults(it + bj + 1); err != nil {
				return err
			}
			if it < 0 {
				return fmt.Errorf("scaleout: fault at cycle %d detected but not consumed", fc)
			}
			continue
		}
		r.commit(seg, int64(it))
		for ; it < end; it++ {
			r.measure(it)
		}
	}
	r.next = r.iters
	return nil
}
