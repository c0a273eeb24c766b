// The overlapped segment scheduler.
//
// core.overlap builds the overlapped discipline's event schedule for
// iterations [s, e) over the live nodes. Its one caller is the runtime's
// overlapped loop, once per segment between capture boundaries — the
// whole phase when nothing is captured. A segment runs in two passes:
//
//  1. every live node pre-steps the whole segment in parallel
//     (core.prestep on the worker pool: each node's stepwise nmp.Engine
//     plus its DRAM channels advances on its private back-to-back clock),
//     recording the durations and buffering the steps' telemetry;
//  2. the macro schedule — halo flights through the contended topology
//     and dependency resolution — drains serially on one event loop
//     (sim.Engine.Run), placing each pre-stepped iteration where the
//     schedule starts it.
//
// No lookahead is needed between the two: engine iteration durations are
// schedule-independent (identical to nmp.Simulate — the same invariant
// the checkpoint replay relies on), so the schedule only ever reads
// durations that are already known. The event loop creates the same
// closures in the same order at any worker count, so every event
// sequence number, Result field, telemetry span and checkpoint blob is
// byte-identical across worker counts; the conformance suite pins this
// across the topology x discipline x node-count matrix.
package scaleout

import (
	"nmppak/internal/sim"
	"nmppak/internal/telemetry"
	"nmppak/internal/topo"
)

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
// the phase clock (telemetry offset). The iterations from replay on are
// pre-stepped on the worker pool before the first event is seeded, so
// the event loop only places them. Iterations below replay already have
// recorded durations — a restored run — and are replayed instead of
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
	for i := range nodes {
		if c.isLive(i) {
			nodes[i] = &ovNode{pendingIn: make([]int, m), finished: make([]bool, m), started: make([]bool, m)}
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
			if pr != nil {
				if it < replay {
					pr.placeReplayed(i, it, off+at, d)
				} else {
					pr.place(i, it, off+at)
				}
			}
			lastEnd[i] = at + d
			g.After(d, func() { finish(i, j) })
		})
	}
	c.prestep(max(s, replay), e)
	for i := 0; i < n; i++ {
		if nodes[i] != nil {
			nodes[i].started[0] = true
			begin(i, 0, 0)
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
