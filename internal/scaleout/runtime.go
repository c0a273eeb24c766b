// The distributed compaction runtime: N stepwise per-node NMP engines
// (nmp.Engine) and the interconnect composed on one global timeline.
// Three drivers run the compaction phase — runtime (static ownership),
// rebalanceRun (migrating ownership, rebalance.go) and elasticRun
// (checkpoints and faults, elastic.go) — and all of them are built on
// the one core below, under one of two disciplines:
//
//   - BSP (Config.Overlap == false, the default): every iteration is a
//     global superstep — all live nodes compute, the slowest paces the
//     step, the iteration's halo exchange runs serially on the links, and
//     a log-tree barrier plus the NMP runtime's own sync barrier close the
//     step. This reproduces the original aggregation model cycle for
//     cycle (TestGoldenEquivalence pins it). Each driver has exactly one
//     BSP loop: pre-step a chunk of iterations on the worker pool
//     (core.prestep), then price each superstep of the chunk in order
//     from the recorded durations (core.superstep). Supersteps are
//     barrier-synchronized, so every iteration boundary is a horizon and
//     the chunk length is free: core.chunk is Config.PrestepDepth with a
//     real worker pool on a multi-node machine and 1 otherwise, the
//     superstep-at-a-time reference order.
//   - Overlapped (Config.Overlap == true): a node that finishes iteration
//     i immediately streams its outgoing halo bytes while lagging nodes
//     are still computing, and only the dependent work waits — node j may
//     begin iteration i+1 as soon as (a) its own iteration i ended plus
//     the local sync barrier and (b) every iteration-i halo message
//     destined to j has been delivered. There is no global barrier; halo
//     messages route hop-by-hop through the same contended topology links
//     (topo.Flight) that price topo.Exchange. One segment scheduler
//     (core.overlap, runtime_parallel.go) builds this event schedule for
//     both the runtime (one segment over the whole phase) and the elastic
//     runtime (one segment per checkpoint interval).
//
// In both modes each engine advances on its local back-to-back clock
// (identical to nmp.Simulate), so per-iteration durations — and therefore
// every per-node Result — are identical across modes and across worker
// counts; the modes differ only in how those durations and the halo
// traffic compose on the global timeline. That makes the BSP/overlap
// comparison exact: same compute, different schedule.
package scaleout

import (
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

// core is the state and machinery every compaction driver shares: the
// per-node engines with their recorded durations, the telemetry glue, and
// the phase clock. Accounting invariant: compute + exchange + barrier is
// the compaction-phase clock at every iteration boundary — halo exchanges
// and migrations in exchange, link and sync barriers (and the elastic
// runtime's protocol stalls) in barrier, with the barrier bucket's
// interconnect share tracked in linkBarrier.
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

	// Overlapped window-driver state: windowed reports that the window
	// driver runs the current segment, stepped is the first iteration it
	// has NOT yet pre-stepped.
	windowed bool
	stepped  int

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
// snapshot together with the recorded durations and resume point.
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
	c.next = 0
	if ck != nil {
		c.next = ck.ResumeIter
	}
	if c.pr != nil {
		c.pr.attach(c.engines)
	}
	return nil
}

// resumeBSP re-enters a BSP phase at a blob's boundary: the recorded
// compute/exchange partial sums plus the closing barriers of the
// supersteps already executed (which depend only on their count).
func (c *core) resumeBSP(ck *CheckpointState) {
	c.compute, c.exchange = ck.Compute, ck.Exchange
	c.exchangedBytes = ck.CompactExchangedBytes
	if crossed := min(ck.ResumeIter, c.iters-1); crossed > 0 {
		lb := c.net.BarrierCycles()
		c.linkBarrier = sim.Cycle(crossed) * lb
		c.barrier = sim.Cycle(crossed) * (lb + c.cfg.NMP.SyncBarrierCycles)
	}
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

// chunk is how many supersteps a BSP loop pre-steps at once: the
// pre-step depth when a worker pool can spread a multi-node machine's
// engines, otherwise 1 — superstep-at-a-time, the reference order.
func (c *core) chunk() int {
	if par.Threads(c.cfg.Workers) > 1 && c.n > 1 {
		return c.cfg.depth()
	}
	return 1
}

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

// prestep runs every live engine through iterations [from, to) on the
// worker pool. Each worker owns node i exclusively, so the engine, its
// duration row, its DRAM tracks and its step buffer stay single-writer.
func (c *core) prestep(from, to int) {
	par.ForIdx(c.n, c.cfg.Workers, func(i int) {
		if c.isLive(i) {
			for it := from; it < to; it++ {
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

// snapshot records the executed durations, the engine snapshots and the
// BSP partial sums on a checkpoint.
func (c *core) snapshot(ck *CheckpointState) error {
	ck.Compute, ck.Exchange = c.compute, c.exchange
	ck.CompactExchangedBytes = c.exchangedBytes
	return snapshotInto(ck, c.durations, c.engines)
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

// driver is a fixed-membership compaction runtime — runtime or
// rebalanceRun — as Simulate, Checkpoint, Restore and Session drive it:
// advanced boundary by boundary, snapshotted at any boundary, finished
// into a Result.
type driver interface {
	base() *core
	setProbes(pr *probes)
	// advance executes iterations [next, to).
	advance(to int)
	snapshot(ck *CheckpointState) error
	// finish executes the remaining iterations, records the run's
	// traffic accounting on res and returns the sealed outcome.
	finish(res *Result) *compactOutcome
}

func (c *core) base() *core { return c }

// newDriver builds the fixed-membership runtime cfg selects, at
// iteration 0 — or, with a non-nil ck, at the blob's pause point.
func newDriver(tr *trace.Trace, net topo.Network, cfg Config, ck *CheckpointState) (driver, error) {
	if rp, ok := cfg.Partitioner.(*RebalancePartitioner); ok {
		rr, err := newRebalanceRun(tr, net, cfg, rp, ck)
		if err != nil {
			return nil, err
		}
		return rr, nil
	}
	rt, err := newRuntime(ShardTrace(tr, cfg.Nodes, cfg.Partitioner), net, cfg, ck)
	if err != nil {
		return nil, err
	}
	return rt, nil
}

// runtime is the static-ownership driver: the shard schedule is fixed up
// front (ShardTrace), so the halo matrices are too.
type runtime struct {
	core
	st *ShardedTrace
}

// newRuntime builds the runtime at iteration 0, or at a checkpoint's
// pause point with restored engines and recorded durations — plus, for
// BSP, the partial sums. An overlapped restore replays its whole
// macro-schedule from the recorded durations instead.
func newRuntime(st *ShardedTrace, net topo.Network, cfg Config, ck *CheckpointState) (*runtime, error) {
	rt := &runtime{core: newCore(cfg, net, len(st.Traces[0].Iterations)), st: st}
	if err := rt.loadEngines(st.Traces, ck); err != nil {
		return nil, err
	}
	if ck != nil && !cfg.Overlap {
		rt.resumeBSP(ck)
	}
	return rt, nil
}

// advance executes iterations [next, to). An overlapped run only steps
// the engines here (a checkpoint capture): its restore rebuilds the
// event-driven schedule from the halo matrices and the recorded
// durations, so pricing BSP exchanges would be discarded work.
func (rt *runtime) advance(to int) {
	if rt.cfg.Overlap {
		rt.prestep(rt.next, to)
		rt.next = to
		return
	}
	k := rt.chunk()
	for it := rt.next; it < to; it += k {
		end := min(it+k, to)
		rt.prestep(it, end)
		for j := it; j < end; j++ {
			rt.superstep(j, rt.st.Halo[j])
		}
	}
	rt.next = to
}

// run completes the compaction phase under the configured discipline.
// The overlapped schedule is one segment over the whole phase that
// replays the iterations a restore already holds durations for.
func (rt *runtime) run() *compactOutcome {
	if rt.cfg.Overlap {
		rt.commit(rt.overlap(0, rt.iters, rt.st.Halo, 0, rt.next), -1)
		rt.next = rt.iters
	} else {
		rt.advance(rt.iters)
	}
	return rt.outcome()
}

func (rt *runtime) finish(res *Result) *compactOutcome {
	res.HaloBytes = rt.st.HaloBytes
	res.RemoteTNFrac = rt.st.RemoteTNFrac()
	return rt.run()
}
