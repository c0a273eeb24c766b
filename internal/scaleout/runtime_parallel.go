// The overlapped segment scheduler and its conservative-PDES window
// driver.
//
// core.overlap builds the overlapped discipline's event schedule for
// iterations [s, e) over the live nodes — the runtime calls it once over
// the whole phase, the elastic runtime once per checkpoint segment. It
// interleaves two very different kinds of work on one timeline: the heavy
// per-node engine micro-simulation (core.step — the DRAM/NMP cycle model)
// and the light macro schedule (halo flights and dependency resolution).
// Two branches run that schedule. The lazy branch is the reference: each
// engine is stepped from inside the event that begins its iteration. It
// is taken with one effective worker, a single live node, or a
// zero-lookahead network. Otherwise the window driver runs: each node's
// stepwise nmp.Engine plus its DRAM channels is a logical process
// advancing on its private clock, and the macro timeline becomes a
// window-based synchronous protocol loop —
//
//  1. every live node pre-steps its next k iterations in parallel
//     (core.prestep on the worker pool, k = Config.PrestepDepth),
//     recording the durations and buffering the steps' telemetry;
//  2. the scheduler derives a conservative horizon: no event that needs a
//     still-unknown duration can occur before it (see horizon, whose
//     delivery terms come from the per-pair lookahead matrix —
//     topo.Network.PairMinLatency — so each node's bound uses only its
//     actual halo senders' route distances);
//  3. the event loop advances up to that horizon (sim.Engine.RunUntil),
//     then the next round begins.
//
// Because engine iteration durations are schedule-independent (each
// engine advances on its local back-to-back clock, identical to
// nmp.Simulate — the same invariant the checkpoint replay relies on),
// pre-stepping cannot change any duration, to any depth; and because both
// branches create the exact same event closures in the exact same order,
// every event sequence number, Result field, telemetry span and
// checkpoint blob is byte-identical between them. The conformance suite
// pins this across the topology x discipline x node-count x depth matrix.
package scaleout

import (
	"math"

	"nmppak/internal/par"
	"nmppak/internal/sim"
	"nmppak/internal/telemetry"
	"nmppak/internal/topo"
)

// pairLookahead precomputes the window driver's lookahead matrix:
// look[src][dst] is a conservative lower bound on src -> dst delivery
// (topo.Network.PairMinLatency). On distance-varying topologies distant
// sender pairs get strictly wider bounds than the global MinLatency,
// which widens the windows correspondingly. A Degraded network
// recomputes detour-forced pairs from its actual routes, so the matrix
// is built per segment, after the degradation events it must observe.
func pairLookahead(net topo.Network, n int) [][]sim.Cycle {
	look := make([][]sim.Cycle, n)
	for src := 0; src < n; src++ {
		look[src] = make([]sim.Cycle, n)
		for dst := 0; dst < n; dst++ {
			if dst != src {
				look[src][dst] = net.PairMinLatency(src, dst)
			}
		}
	}
	return look
}

// horizon returns the conservative bound after pre-stepping through the
// iteration whose halo matrix is halo: no event that needs the next
// iteration's (unknown) duration can occur strictly before it. Live node
// i's next iteration begins at the later of
//
//   - its own chain bound lb[i] (previous end + sync barrier), and
//   - for every live halo sender src, that sender's finish bound le[src]
//     plus the pair's minimum send-to-delivery latency look[src][i]
//     (contention and degradation only delay further) — the lookahead
//     term that lets a node with pending inbound halo run ahead of a slow
//     sender by that pair's wire distance.
//
// The global horizon is the minimum over live nodes (live nil: all).
func horizon(halo [][]int64, live []bool, look [][]sim.Cycle, lb, le []sim.Cycle) sim.Cycle {
	h := sim.Cycle(math.MaxInt64)
	for i := range lb {
		if live != nil && !live[i] {
			continue
		}
		bound := lb[i]
		for src := range lb {
			if src != i && (live == nil || live[src]) && halo[src][i] > 0 {
				if d := le[src] + look[src][i]; d > bound {
					bound = d
				}
			}
		}
		if bound < h {
			h = bound
		}
	}
	return h
}

// ovNode is one node's overlapped scheduling state within a segment
// (link occupancy lives in the shared topo.Flight).
type ovNode struct {
	// pendingIn[j] counts halo messages of segment iteration j still in
	// flight toward this node.
	pendingIn []int
	// readyAt is when the node's own compute-side constraint for its next
	// iteration is satisfied (previous end + sync barrier).
	readyAt  sim.Cycle
	finished []bool
	started  []bool
}

// segOutcome summarizes one overlapped segment on its own clock (zero at
// the segment start).
type segOutcome struct {
	makespan sim.Cycle   // segment completion (last finish or delivery)
	compute  sim.Cycle   // longest live node's local chain in the segment
	boundary []sim.Cycle // boundary[j]: latest live finish of iteration s+j
	bytes    int64       // halo bytes streamed
}

// overlap schedules iterations [s, e) event-driven over the live nodes
// and core.net: finishing nodes stream their halo bytes (halo[j] is
// iteration s+j's matrix) while laggards compute, and each node's next
// iteration waits only on its own finish (plus sync barrier) and on the
// delivery of the halo traffic it depends on. at is the segment start on
// the phase clock (telemetry offset). Iterations below replay already
// have recorded durations — a restored run — and are replayed instead of
// re-stepped: the schedule is a deterministic function of (durations,
// halo, topology), so the replay reproduces the uninterrupted timeline
// exactly while skipping the engine micro-simulation.
func (c *core) overlap(s, e int, halo [][][]int64, at sim.Cycle, replay int) *segOutcome {
	n, m := c.n, e-s
	pr := c.pr
	sb := c.cfg.NMP.SyncBarrierCycles
	seg := &segOutcome{boundary: make([]sim.Cycle, m)}
	if m == 0 {
		return seg
	}
	g := &sim.Engine{}
	if pr != nil {
		g.SetProbe(&pr.loop)
	}
	nodes := make([]*ovNode, n)
	liveN := 0
	for i := range nodes {
		if c.isLive(i) {
			nodes[i] = &ovNode{pendingIn: make([]int, m), finished: make([]bool, m), started: make([]bool, m)}
			liveN++
		}
	}
	for j := 0; j < m; j++ {
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				if dst != src && halo[j][src][dst] > 0 {
					nodes[dst].pendingIn[j]++
					seg.bytes += halo[j][src][dst]
				}
			}
		}
	}
	fl := topo.NewFlight(c.net, g)
	var off sim.Cycle
	if pr != nil {
		off = pr.base + at
		fl.SetProbe(&topo.Probe{Links: pr.links, Offset: off})
	}
	note := func(t sim.Cycle) {
		if t > seg.makespan {
			seg.makespan = t
		}
	}
	// lastEnd[i] is node i's last iteration end on the segment clock, for
	// the gap spans between iterations.
	lastEnd := make([]sim.Cycle, n)

	var begin func(i, j int, at sim.Cycle)
	// tryStart launches node i's segment iteration j once both its
	// compute-side and delivery-side dependencies have resolved; the
	// triggering event supplies the later of the two times. src is the
	// halo sender when a delivery triggered the call, -1 when the node's
	// own finish did.
	tryStart := func(i, j, src int) {
		nd := nodes[i]
		if j >= m || nd.started[j] || !nd.finished[j-1] || nd.pendingIn[j-1] > 0 {
			return
		}
		nd.started[j] = true
		at := nd.readyAt
		bound := telemetry.BoundSync
		if now := g.Now(); now > at {
			at = now
			if src >= 0 {
				// The last constraint to resolve was a halo delivery that
				// landed after the node's own compute-side readiness: the
				// interconnect bounded this iteration.
				bound = telemetry.BoundDelivery
			}
		}
		if pr != nil {
			sn := src
			if bound != telemetry.BoundDelivery {
				sn = -1
			}
			pr.c.AddDep(i, s+j, bound, sn)
		}
		begin(i, j, at)
	}
	finish := func(i, j int) {
		nd := nodes[i]
		now := g.Now()
		nd.finished[j] = true
		if now > seg.boundary[j] {
			seg.boundary[j] = now
		}
		note(now)
		// Stream this iteration's outgoing halo through the topology: the
		// Flight reserves the first route link immediately (the sender's
		// serializing injection port) and store-and-forwards through every
		// contended downstream link, the same occupancy discipline
		// topo.Exchange uses. Halo never involves a dead node: sharding
		// assigns every key to a live owner.
		for off := 1; off < n; off++ {
			dst := (i + off) % n
			b := halo[j][i][dst]
			if b <= 0 {
				continue
			}
			fl.Send(i, dst, b, func() {
				note(g.Now())
				nodes[dst].pendingIn[j]--
				tryStart(dst, j+1, i)
			})
		}
		if j+1 < m {
			nd.readyAt = now + sb
			tryStart(i, j+1, -1)
		}
	}
	begin = func(i, j int, at sim.Cycle) {
		g.At(at, func() {
			it := s + j
			// The gap since the node's previous iteration decomposes into
			// the sync barrier and, past it, the halo-delivery wait (the
			// start is never earlier than readyAt = previous end + sb).
			if pr != nil && j > 0 {
				e0 := lastEnd[i]
				if sb > 0 {
					pr.node[i].Add(telemetry.SpanSyncBarrier, off+e0, off+e0+sb, int64(it), 0)
				}
				if at > e0+sb {
					pr.node[i].Add(telemetry.SpanDeliveryWait, off+e0+sb, off+at, int64(it), 0)
				}
			}
			d := c.durations[i][it]
			if it < replay {
				if pr != nil {
					pr.placeReplayed(i, it, off+at, d)
				}
			} else {
				if it >= c.stepped {
					if c.windowed {
						// The lookahead bound admitted an event it must
						// exclude — a conservative-PDES protocol
						// violation, never a recoverable condition.
						panic("scaleout: overlapped window driver reached an un-stepped iteration")
					}
					c.step(i)
					d = c.durations[i][it]
				}
				if pr != nil {
					pr.place(i, it, off+at)
				}
			}
			lastEnd[i] = at + d
			g.After(d, func() { finish(i, j) })
		})
	}
	for i := 0; i < n; i++ {
		if nodes[i] != nil {
			nodes[i].started[0] = true
			begin(i, 0, 0)
		}
	}

	c.stepped = replay
	c.windowed = par.Threads(c.cfg.Workers) > 1 && liveN > 1 && c.net.MinLatency() > 0
	if c.windowed {
		look := pairLookahead(c.net, n)
		k := c.cfg.depth()
		// Chain lower bounds per live node on the segment clock: every
		// iteration begins no earlier than its predecessor's begin plus
		// that predecessor's duration plus the sync barrier (delivery
		// waits only push it later). lb[i] bounds node i's next
		// un-stepped iteration's begin, le[i] its last pre-stepped
		// iteration's end; a replayed prefix seeds them.
		lb := make([]sim.Cycle, n)
		le := make([]sim.Cycle, n)
		chain := func(from, to int) {
			for i := range nodes {
				for it := from; nodes[i] != nil && it < to; it++ {
					le[i] = lb[i] + c.durations[i][it]
					lb[i] = le[i] + sb
				}
			}
		}
		chain(s, replay)
		for r := replay; r < e; r += k {
			hi := min(r+k, e)
			c.prestep(r, hi)
			c.stepped = hi
			chain(r, hi)
			if hi == e {
				// Every duration is known; the closing Run drains the
				// loop with nothing left to look ahead of.
				break
			}
			g.RunUntil(horizon(halo[hi-1-s], c.live, look, lb, le))
		}
	}
	g.Run()

	// A node's local chain over the segment — its durations plus the
	// sync barriers between them — is what a free interconnect would
	// run; the slowest chain is the segment's compute, anything beyond it
	// exposed communication.
	for i := range nodes {
		if nodes[i] == nil {
			continue
		}
		ch := sim.Cycle(m-1) * sb
		for it := s; it < e; it++ {
			ch += c.durations[i][it]
		}
		if ch > seg.compute {
			seg.compute = ch
		}
		if pr != nil && lastEnd[i] < seg.makespan {
			pr.node[i].Add(telemetry.SpanIdle, off+lastEnd[i], off+seg.makespan, int64(e-1), 0)
		}
	}
	return seg
}

// commit charges a completed segment to the phase clock — its compute
// and the communication it failed to hide — recording both on the
// runtime track with span argument arg.
func (c *core) commit(seg *segOutcome, arg int64) {
	if pr := c.pr; pr != nil {
		t := pr.base + c.now()
		if seg.compute > 0 {
			pr.phases.Add(telemetry.SpanCompute, t, t+seg.compute, arg, 0)
		}
		if seg.makespan > seg.compute {
			pr.phases.Add(telemetry.SpanExchangeWait, t+seg.compute, t+seg.makespan, arg, seg.bytes)
		}
	}
	c.compute += seg.compute
	c.exchange += seg.makespan - seg.compute
	c.exchangedBytes += seg.bytes
}
