package main

import (
	"encoding/json"
	"io"
	"os"
	"regexp"
	"slices"
	"testing"
)

// tinyScale runs every workload through the benchmark's own code paths in
// a few seconds. The quantum is shortened so the smaller fleet jobs are
// still preempted.
var tinyScale = scale{GenomeLen: 12_000, Coverage: 12, Quantum: 1 << 14}

const tinySeed = 5

type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMetricNames(t *testing.T) {
	b := loadBenchmark(t)
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	var names []string
	for _, m := range b.EndToEnd {
		names = append(names, m.Name)
	}
	for _, m := range b.PerLayer {
		names = append(names, m.Name)
	}
	for _, def := range layerMetrics {
		names = append(names, def.name)
	}
	for _, n := range names {
		if !valid.MatchString(n) {
			t.Errorf("metric name %q does not match %s", n, valid)
		}
	}
	if len(b.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the harness reports %d", len(b.PerLayer), len(layerMetrics))
	}
	for i, def := range layerMetrics {
		if b.PerLayer[i].Name != def.name || b.PerLayer[i].Unit != def.unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %s [%s], the harness %s [%s]",
				i, b.PerLayer[i].Name, b.PerLayer[i].Unit, def.name, def.unit)
		}
	}
	var wls []string
	for _, w := range b.Workloads {
		wls = append(wls, w.Name)
	}
	for _, w := range workloads {
		if !slices.Contains(wls, w.name) {
			t.Errorf("workload %s is missing from BENCHMARK.json", w.name)
		}
	}
}

// TestMismatchCounted: an op whose output differs from the reference is
// counted as failed.
func TestMismatchCounted(t *testing.T) {
	w, err := findWorkload("paper-1node")
	if err != nil {
		t.Fatal(err)
	}
	j, err := w.setup(tinySeed, tinyScale, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s := timeOps(j, 0); s.failed != 0 {
		t.Fatalf("%d of %d ops failed against their own reference", s.failed, s.attempted)
	}
	j.ref.cycles++
	s := timeOps(j, 0)
	if s.attempted < minOps || s.failed != s.attempted {
		t.Fatalf("with a wrong reference %d of %d ops failed, want all", s.failed, s.attempted)
	}
}

// TestWorkloadsEndToEnd runs every workload's untraced run on the tiny
// scale and checks the result carries exactly the BENCHMARK.json
// end-to-end metrics, each positive.
func TestWorkloadsEndToEnd(t *testing.T) {
	b := loadBenchmark(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := runE2E(w, tinySeed, tinyScale, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < minOps {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(b.EndToEnd) {
				t.Errorf("reported %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(b.EndToEnd))
			}
			for _, m := range b.EndToEnd {
				v, ok := res.Metrics[m.Name]
				if !ok || v.Unit != m.Unit || v.Value <= 0 {
					t.Errorf("metric %s [%s]: got %+v (present %v)", m.Name, m.Unit, v, ok)
				}
			}
		})
	}
}

// TestTracedRun checks the traced run reports every per-layer metric and
// that the scale-out breakdown adds up to the Workers=1 Simulate.
func TestTracedRun(t *testing.T) {
	w, err := findWorkload("scaleout-64")
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	res, err := runTraced(w, tinySeed, tinyScale, 0, tr, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted != 1 {
		t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(layerMetrics) {
		t.Errorf("reported %d per-layer metrics, want %d", len(res.Metrics), len(layerMetrics))
	}
	m := func(n string) float64 { return res.Metrics[n].Value }
	parts := m("scaleout.count_sharded_s") + m("scaleout.build_shard_graphs_s") +
		m("scaleout.shard_trace_s") + m("scaleout.engines_step_s")
	for _, d := range []string{"bsp", "overlap"} {
		sum := parts + m("scaleout.pricing_"+d+"_s")
		if got := m("scaleout.simulate_" + d + "_s"); abs(sum-got) > 1e-9 {
			t.Errorf("%s: parts add up to %g s, Simulate took %g s", d, sum, got)
		}
	}
	if m("tenancy.preemptions") < 1 || m("trace.iterations") < 2 || m("scaleout.comm_frac") <= 0 {
		t.Errorf("workload shape lost: preemptions %g, iterations %g, comm_frac %g",
			m("tenancy.preemptions"), m("trace.iterations"), m("scaleout.comm_frac"))
	}
	for i, s := range tr.spans {
		if s.Parent >= i || s.EndS < s.StartS {
			t.Fatalf("span %d %+v is not closed after its parent opened", i, s)
		}
	}
}

func TestCompareRefusesOtherCoreCounts(t *testing.T) {
	a := record{stamp: stamp{NProc: 2, GOMAXPROCS: 2}}
	b := record{stamp: stamp{NProc: 1, GOMAXPROCS: 4}}
	if err := sameHost([]record{a, a}); err != nil {
		t.Fatal(err)
	}
	if err := sameHost([]record{a, b}); err == nil {
		t.Fatal("records from different core counts were compared")
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
