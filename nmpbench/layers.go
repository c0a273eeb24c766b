package main

import (
	"fmt"
	"io"
	"reflect"

	"nmppak/internal/nmp"
	"nmppak/internal/scaleout"
	"nmppak/internal/telemetry"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// layerMetrics are the per-layer metrics of the traced run, in report
// order. BENCHMARK.json lists the same names and units.
var layerMetrics = []metricDef{
	{"kmer.count_s", "s"},
	{"kmer.distinct", "count"},
	{"pakgraph.build_s", "s"},
	{"pakgraph.macro_nodes", "count"},
	{"compact.run_s", "s"},
	{"trace.iterations", "count"},
	{"trace.node_ops", "count"},
	{"trace.transfers", "count"},
	{"assemble.run_s", "s"},
	{"assemble.peak_graph_nodes", "count"},
	{"nmp.simulate_s", "s"},
	{"nmp.node_ops_per_s", "1/s"},
	{"nmp.bw_util", "ratio"},
	{"nmp.cpu_node_frac", "ratio"},
	{"scaleout.count_sharded_s", "s"},
	{"scaleout.build_shard_graphs_s", "s"},
	{"scaleout.shard_trace_s", "s"},
	{"scaleout.engines_step_s", "s"},
	{"scaleout.simulate_bsp_s", "s"},
	{"scaleout.simulate_overlap_s", "s"},
	{"scaleout.pricing_bsp_s", "s"},
	{"scaleout.pricing_overlap_s", "s"},
	{"scaleout.pricing_s", "s"},
	{"scaleout.speedup_vs_serial_bsp", "ratio"},
	{"scaleout.speedup_vs_serial_overlap", "ratio"},
	{"sim.engine_events", "count"},
	{"sim.overlap_events", "count"},
	{"scaleout.comm_frac", "ratio"},
	{"scaleout.remote_tn_frac", "ratio"},
	{"scaleout.imbalance", "ratio"},
	{"telemetry.overhead_frac", "ratio"},
	{"scaleout.ckpt_encode_s", "s"},
	{"scaleout.ckpt_decode_s", "s"},
	{"scaleout.ckpt_resume_s", "s"},
	{"scaleout.ckpt_bytes", "bytes"},
	{"tenancy.fleet_run_s", "s"},
	{"tenancy.preemptions", "count"},
	{"tenancy.ckpt_mb", "MB"},
	{"tenancy.fleet_util", "ratio"},
}

// profile runs every layer once on the job's reads, each call inside a
// span, and returns the per-layer metrics of that pass. It is the same
// for every workload: the paper flow, the 64-node breakdown and the
// checkpoint and fleet layers.
func profile(j *job, sc scale, t *tracer) (map[string]float64, error) {
	m := map[string]float64{}
	defer t.end(t.begin("profile"))

	id := t.begin("paper-1node")
	r, err := runPaper(j, t)
	t.end(id)
	if err != nil {
		return nil, err
	}
	tr := r.tr
	m["kmer.count_s"] = t.last("kmer.Count")
	m["kmer.distinct"] = float64(len(r.kres.Kmers))
	m["pakgraph.build_s"] = t.last("pakgraph.Build")
	m["pakgraph.macro_nodes"] = float64(r.nodes)
	m["compact.run_s"] = t.last("compact.Run")
	m["trace.iterations"] = float64(len(tr.Iterations))
	m["trace.node_ops"] = float64(tr.TotalNodeOps())
	m["trace.transfers"] = float64(tr.TotalTransfers())
	m["assemble.run_s"] = t.last("assemble.Run")
	m["assemble.peak_graph_nodes"] = float64(r.asm.PeakGraphNodes)
	m["nmp.simulate_s"] = t.last("nmp.Simulate")
	m["nmp.node_ops_per_s"] = m["trace.node_ops"] / m["nmp.simulate_s"]
	m["nmp.bw_util"] = r.nmp.Utilization
	m["nmp.cpu_node_frac"] = float64(r.nmp.NodesCPU) / float64(r.nmp.NodesCPU+r.nmp.NodesNMP)

	id = t.begin("scaleout-64")
	err = profileScaleout(j, r, m, t)
	t.end(id)
	if err != nil {
		return nil, err
	}

	id = t.begin("fleet-preempt")
	err = profileFleet(j, r, sc, m, t)
	t.end(id)
	if err != nil {
		return nil, err
	}
	return m, nil
}

// profileScaleout splits the Workers=1 Simulate of the 64-node machine
// into its prelude, trace sharding, per-node engine stepping and the
// macro-schedule pricing that remains, then times the Workers=0 op and an
// instrumented run against it.
func profileScaleout(j *job, r *paperRun, m map[string]float64, t *tracer) error {
	cfg := scaleoutConfig(j.w, 1, false)
	id := t.begin("scaleout.CountSharded")
	sc, err := scaleout.CountSharded(j.ctx.Reads, cfg)
	t.end(id)
	if err != nil {
		return err
	}
	id = t.begin("scaleout.ShardedCount.BuildShardGraphs")
	_, err = sc.BuildShardGraphs(cfg)
	t.end(id)
	if err != nil {
		return err
	}
	id = t.begin("scaleout.ShardTrace")
	st := scaleout.ShardTrace(r.tr, cfg.Nodes, cfg.Partitioner)
	t.end(id)

	id = t.begin("scaleout.engines")
	for _, sub := range st.Traces {
		eid := t.begin("nmp.Engine")
		e, err := nmp.NewEngine(sub, cfg.NMP)
		if err != nil {
			t.end(eid)
			t.end(id)
			return err
		}
		for !e.Done() {
			e.StepIteration(e.NextStart())
		}
		t.end(eid)
	}
	t.end(id)

	serial, err := simulatePair(j, r.tr, 1, t)
	if err != nil {
		return err
	}
	par, err := simulatePair(j, r.tr, 0, t)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(serial, par) {
		return fmt.Errorf("scaleout-64: the Workers=0 results differ from Workers=1")
	}

	icfg := scaleoutConfig(j.w, 1, true)
	icfg.Telemetry = telemetry.New()
	id = t.begin("scaleout.Simulate[overlap,workers=1,telemetry]")
	ires, err := scaleout.Simulate(j.ctx.Reads, r.tr, icfg)
	t.end(id)
	if err != nil {
		return err
	}
	if ires.TotalCycles != serial[1].TotalCycles {
		return fmt.Errorf("scaleout-64: the instrumented run changed the model: %d cycles, want %d", ires.TotalCycles, serial[1].TotalCycles)
	}
	for _, c := range icfg.Telemetry.Counters() {
		switch c.Name {
		case "engine_events":
			m["sim.engine_events"] = float64(c.Value)
		case "overlap_events":
			m["sim.overlap_events"] = float64(c.Value)
		}
	}

	m["scaleout.count_sharded_s"] = t.last("scaleout.CountSharded")
	m["scaleout.build_shard_graphs_s"] = t.last("scaleout.ShardedCount.BuildShardGraphs")
	m["scaleout.shard_trace_s"] = t.last("scaleout.ShardTrace")
	m["scaleout.engines_step_s"] = t.last("scaleout.engines")
	m["scaleout.simulate_bsp_s"] = t.last(simulateName(false, 1))
	m["scaleout.simulate_overlap_s"] = t.last(simulateName(true, 1))
	m["scaleout.speedup_vs_serial_bsp"] = m["scaleout.simulate_bsp_s"] / t.last(simulateName(false, 0))
	m["scaleout.speedup_vs_serial_overlap"] = m["scaleout.simulate_overlap_s"] / t.last(simulateName(true, 0))
	m["scaleout.comm_frac"] = commFrac(serial)
	m["scaleout.remote_tn_frac"] = st.RemoteTNFrac()
	m["scaleout.imbalance"] = serial[0].Imbalance
	m["telemetry.overhead_frac"] = t.last("scaleout.Simulate[overlap,workers=1,telemetry]")/m["scaleout.simulate_overlap_s"] - 1
	return nil
}

// profileFleet times the checkpoint layer in both directions on the
// 6-node tenant's session, paused halfway, then one fleet run.
func profileFleet(j *job, r *paperRun, sc scale, m map[string]float64, t *tracer) error {
	jobs, seeds, err := fleetJobs(j, r.tr, t)
	if err != nil {
		return err
	}
	cfg := fleetConfig(j.w, 6)
	id := t.begin("scaleout.ResumeSession")
	s, err := scaleout.ResumeSession(r.tr, cfg, seeds[6])
	t.end(id)
	if err != nil {
		return err
	}
	id = t.begin("scaleout.Session.Step")
	s.Step(s.Iterations() / 2)
	t.end(id)
	id = t.begin("scaleout.Session.Checkpoint")
	blob, err := s.Checkpoint()
	t.end(id)
	if err != nil {
		return err
	}
	m["scaleout.ckpt_encode_s"] = t.last("scaleout.Session.Checkpoint")
	id = t.begin("scaleout.UnmarshalCheckpoint")
	_, err = scaleout.UnmarshalCheckpoint(blob)
	t.end(id)
	if err != nil {
		return err
	}
	m["scaleout.ckpt_decode_s"] = t.last("scaleout.UnmarshalCheckpoint")
	id = t.begin("scaleout.ResumeSession")
	_, err = scaleout.ResumeSession(r.tr, cfg, blob)
	t.end(id)
	if err != nil {
		return err
	}
	m["scaleout.ckpt_resume_s"] = t.last("scaleout.ResumeSession")
	m["scaleout.ckpt_bytes"] = float64(len(blob))

	sched, err := runFleet(newFleet(sc), jobs, t)
	if err != nil {
		return err
	}
	m["tenancy.fleet_run_s"] = t.last("tenancy.Fleet.Run")
	m["tenancy.preemptions"] = float64(sched.Preemptions)
	m["tenancy.ckpt_mb"] = float64(sched.CheckpointBytes) / 1e6
	m["tenancy.fleet_util"] = sched.Utilization
	return nil
}

// derivePricing sets the pricing self times from medians m: each
// Workers=1 Simulate minus its prelude, sharding and engine stepping, so
// that the reported parts add up to the reported Simulate.
func derivePricing(m map[string]float64) {
	parts := m["scaleout.count_sharded_s"] + m["scaleout.build_shard_graphs_s"] +
		m["scaleout.shard_trace_s"] + m["scaleout.engines_step_s"]
	m["scaleout.pricing_bsp_s"] = m["scaleout.simulate_bsp_s"] - parts
	m["scaleout.pricing_overlap_s"] = m["scaleout.simulate_overlap_s"] - parts
	m["scaleout.pricing_s"] = m["scaleout.pricing_bsp_s"] + m["scaleout.pricing_overlap_s"]
}

// printBreakdown shows that the Workers=1 Simulate of each discipline is
// its prelude, sharding, engine stepping and pricing, using the medians m.
func printBreakdown(w io.Writer, m map[string]float64) {
	for _, d := range []string{"bsp", "overlap"} {
		fmt.Fprintf(w, "scaleout-64 Simulate[%s,workers=1] %.4f s = count_sharded %.4f + build_shard_graphs %.4f + shard_trace %.4f + engines_step %.4f + pricing %.4f\n",
			d, m["scaleout.simulate_"+d+"_s"], m["scaleout.count_sharded_s"], m["scaleout.build_shard_graphs_s"],
			m["scaleout.shard_trace_s"], m["scaleout.engines_step_s"], m["scaleout.pricing_"+d+"_s"])
	}
}
