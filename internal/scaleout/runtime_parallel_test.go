package scaleout

import (
	"reflect"
	"testing"

	"nmppak/internal/sim"
	"nmppak/internal/topo"
)

// parTestRuntime builds a runtime over a small live trace with the given
// worker count and overlap discipline.
func parTestRuntime(t *testing.T, cfg Config, tr *ShardedTrace) *runtime {
	t.Helper()
	net, err := cfg.Topo.Build(cfg.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := newRuntime(tr, net, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestParallelGate pins when pre-stepping engages: with more than one
// effective worker on a multi-node machine, a BSP loop pre-steps
// PrestepDepth supersteps per chunk and an overlapped run takes the
// window driver; with Workers=1 or a single node, BSP advances one
// superstep per chunk and the overlapped schedule takes the lazy
// reference branch. The windowed flag doubles as the witness that the
// window driver actually ran (it trips the protocol panic if the lazy
// branch were to re-enter stepping).
func TestParallelGate(t *testing.T) {
	reads := testReads(t, 12_000)
	tr := testTrace(t, reads, 32, 3)
	const depth = 3

	for _, tc := range []struct {
		nodes, workers int
		parallel       bool
	}{
		{4, 4, true},
		{4, 1, false},
		{1, 4, false},
	} {
		cfg := DefaultConfig(tc.nodes)
		cfg.Workers = tc.workers
		cfg.PrestepDepth = depth
		st := ShardTrace(tr, tc.nodes, cfg.Partitioner)

		want := 1
		if tc.parallel {
			want = depth
		}
		rt := parTestRuntime(t, cfg, st)
		if got := rt.chunk(); got != want {
			t.Errorf("BSP/%d nodes/%d workers: chunk %d, want %d", tc.nodes, tc.workers, got, want)
		}
		rt.run()

		cfg.Overlap = true
		rt = parTestRuntime(t, cfg, st)
		rt.run()
		if rt.windowed != tc.parallel {
			t.Errorf("overlap/%d nodes/%d workers: window driver ran = %v, want %v",
				tc.nodes, tc.workers, rt.windowed, tc.parallel)
		}
	}
}

// TestPairLookaheadWidensHorizon pins the point of the per-pair lookahead
// matrix: on distance-varying topologies the windowed horizons computed
// from PairMinLatency are never below — and for at least one window
// strictly above — the horizons a flat MinLatency matrix would give. A
// wider horizon means the macro loop drains further per window, i.e. the
// route-aware bounds buy real scheduling slack, not just safety.
func TestPairLookaheadWidensHorizon(t *testing.T) {
	reads := testReads(t, 12_000)
	tr := testTrace(t, reads, 32, 3)
	const nodes = 8

	for name, tc := range map[string]topo.Config{
		"torus":     topo.Torus(0, 0),
		"dragonfly": topo.DragonflyGroups(0),
	} {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig(nodes)
			cfg.Overlap = true
			cfg.Workers = 4
			cfg.Topo = tc
			st := ShardTrace(tr, nodes, cfg.Partitioner)
			rt := parTestRuntime(t, cfg, st)
			rt.run() // fills rt.durations across the whole phase

			min := rt.net.MinLatency()
			pair := pairLookahead(rt.net, nodes)
			flat := make([][]sim.Cycle, nodes)
			widened := false
			for src := 0; src < nodes; src++ {
				flat[src] = make([]sim.Cycle, nodes)
				for dst := 0; dst < nodes; dst++ {
					if dst == src {
						continue
					}
					flat[src][dst] = min
					if pair[src][dst] > min {
						widened = true
					}
				}
			}
			if !widened {
				t.Fatalf("%s: no pair bound exceeds the flat MinLatency %d", name, min)
			}

			// Replay the depth-1 window recurrence over the recorded
			// durations and compare the two horizon sequences.
			sb := cfg.NMP.SyncBarrierCycles
			lb := make([]sim.Cycle, nodes)
			le := make([]sim.Cycle, nodes)
			strict := false
			for r := 0; r < rt.iters-1; r++ {
				for i := 0; i < nodes; i++ {
					le[i] = lb[i] + rt.durations[i][r]
					lb[i] = le[i] + sb
				}
				hp := horizon(rt.st.Halo[r], nil, pair, lb, le)
				hf := horizon(rt.st.Halo[r], nil, flat, lb, le)
				if hp < hf {
					t.Fatalf("%s: window %d: per-pair horizon %d below flat horizon %d", name, r, hp, hf)
				}
				if hp > hf {
					strict = true
				}
			}
			if !strict {
				t.Errorf("%s: per-pair horizons never strictly above the flat bound — the matrix buys no slack", name)
			}
		})
	}
}

// TestParallelOutcomeMatchesSerial compares the two overlapped schedulers
// directly at the runtime layer — same sharded trace, same network —
// across every topology, including a Degraded wrapper with slowed and cut
// links (whose MinLatency delegates to the healthy bound).
func TestParallelOutcomeMatchesSerial(t *testing.T) {
	reads := testReads(t, 12_000)
	tr := testTrace(t, reads, 32, 3)
	const nodes = 8

	topos := map[string]topo.Config{
		"fullmesh":  topo.Default(),
		"torus":     topo.Torus(0, 0),
		"dragonfly": topo.DragonflyGroups(0),
	}
	for name, tc := range topos {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig(nodes)
			cfg.Overlap = true
			cfg.Topo = tc
			st := ShardTrace(tr, nodes, cfg.Partitioner)

			scfg := cfg
			scfg.Workers = 1
			srt := parTestRuntime(t, scfg, st)
			want := srt.run()

			pcfg := cfg
			pcfg.Workers = 4
			prt := parTestRuntime(t, pcfg, st)
			got := prt.run()
			if !prt.windowed {
				t.Fatal("parallel runtime did not take the windowed path")
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("parallel outcome diverges: %+v vs %+v", got.Phase, want.Phase)
			}
		})
	}

	t.Run("degraded", func(t *testing.T) {
		cfg := DefaultConfig(nodes)
		cfg.Overlap = true
		cfg.Topo = topo.Torus(0, 0)
		st := ShardTrace(tr, nodes, cfg.Partitioner)
		net, err := cfg.Topo.Build(nodes)
		if err != nil {
			t.Fatal(err)
		}
		degrade := func() *topo.Degraded {
			d := topo.NewDegraded(net)
			if err := d.Slow(0, 1, 0.5); err != nil {
				t.Fatal(err)
			}
			if err := d.CutRoute(2, 3); err != nil {
				t.Fatal(err)
			}
			if err := d.Verify(nil); err != nil {
				t.Fatal(err)
			}
			return d
		}

		scfg := cfg
		scfg.Workers = 1
		srt, err := newRuntime(st, degrade(), scfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := srt.run()

		pcfg := cfg
		pcfg.Workers = 4
		prt, err := newRuntime(st, degrade(), pcfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := prt.run()
		if !prt.windowed {
			t.Fatal("degraded network should still take the parallel path")
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("degraded parallel outcome diverges: %+v vs %+v", got.Phase, want.Phase)
		}
	})
}
