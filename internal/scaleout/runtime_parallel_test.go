package scaleout

import (
	"reflect"
	"testing"

	"nmppak/internal/topo"
	"nmppak/internal/trace"
)

// parTestRuntime builds a runtime over a small live trace with the given
// worker count and overlap discipline.
func parTestRuntime(t *testing.T, cfg Config, tr *trace.Trace) *runtime {
	t.Helper()
	net, err := cfg.Topo.Build(cfg.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := newRuntime(tr, net, cfg, &Result{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// finishRuntime runs rt's remaining iterations and returns the outcome.
func finishRuntime(t *testing.T, rt *runtime) *compactOutcome {
	t.Helper()
	co, err := rt.finish()
	if err != nil {
		t.Fatal(err)
	}
	return co
}

// TestParallelOutcomeMatchesSerial compares overlapped runs that pre-step
// serially and on a worker pool directly at the runtime layer — same
// trace, same network — across every topology, including a Degraded
// wrapper with slowed and cut links.
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

			scfg := cfg
			scfg.Workers = 1
			srt := parTestRuntime(t, scfg, tr)
			want := finishRuntime(t, srt)

			pcfg := cfg
			pcfg.Workers = 4
			prt := parTestRuntime(t, pcfg, tr)
			got := finishRuntime(t, prt)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("parallel outcome diverges: %+v vs %+v", got.Phase, want.Phase)
			}
		})
	}

	t.Run("degraded", func(t *testing.T) {
		cfg := DefaultConfig(nodes)
		cfg.Overlap = true
		cfg.Topo = topo.Torus(0, 0)
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
		srt, err := newRuntime(tr, degrade(), scfg, &Result{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := finishRuntime(t, srt)

		pcfg := cfg
		pcfg.Workers = 4
		prt, err := newRuntime(tr, degrade(), pcfg, &Result{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := finishRuntime(t, prt)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("degraded parallel outcome diverges: %+v vs %+v", got.Phase, want.Phase)
		}
	})
}
