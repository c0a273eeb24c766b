// Package tenancy is the multi-tenant assembly service: a deterministic,
// event-driven fleet scheduler that time-shares a fixed fleet of
// simulated NMP nodes among many concurrent assembly jobs — the
// "millions of users" layer over the single-job scale-out simulator.
//
// A Fleet admits a stream of Jobs (workload trace + scale-out config +
// node demand + priority + deterministic arrival cycle), places each on a
// subset of fleet nodes, and preempts at iteration boundaries through the
// checkpoint machinery: on quantum expiry or a higher-priority arrival,
// the victim's scaleout.Session is snapshotted to a blob at its next
// boundary (the capture stall and blob bytes are charged on the fleet
// timeline), the nodes hand over, and the blob later resumes
// bit-identically — a preempted-and-resumed tenant's Result is
// reflect.DeepEqual to its uninterrupted run, because the Session layer
// composes partial supersteps exactly.
//
// Scheduling policy is pluggable (Policy): FIFO (non-preemptive, strict
// arrival order), strict priority (preemptive), and fair-share (deficit
// round-robin over measured machine cycles) ship built in. Jobs whose
// configuration cannot be checkpointed — elastic fault-plan runs, which
// scaleout.Checkpoint rejects with ErrElasticConfig, and the overlapped
// discipline, which has no mid-run global clock — are detected at
// admission and run to completion on dedicated nodes instead of being
// time-sliced.
//
// Everything is deterministic: the same Fleet and job list produce a
// byte-identical Schedule rendering and, when a telemetry.Collector is
// attached, a byte-identical tenant-colored Chrome trace.
package tenancy

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"nmppak/internal/readsim"
	"nmppak/internal/scaleout"
	"nmppak/internal/sim"
	"nmppak/internal/telemetry"
	"nmppak/internal/trace"
)

// DefaultQuantum is the fair-share possession budget (machine cycles)
// when Fleet.Quantum is unset: roughly one mid-size compaction iteration
// of the paper-default workload, so a quantum spans a few boundaries.
const DefaultQuantum sim.Cycle = 1 << 20

// Job is one tenant's admission request. Config.Nodes is the node
// demand; the job runs on exactly that many fleet nodes.
type Job struct {
	// Name labels the tenant in reports and traces; defaults to "job<i>".
	Name string
	// Priority orders tenants under the strict-priority policy (higher
	// preempts lower); other policies ignore it.
	Priority int
	// Arrival is the fleet-clock cycle the job is admitted at.
	Arrival sim.Cycle
	// Trace is the job's compaction trace (same role as in
	// scaleout.Simulate).
	Trace *trace.Trace
	// Config is the job's scale-out configuration. Config.Nodes is the
	// demand. Elastic configs (CheckpointEvery/Faults) and the overlapped
	// discipline are admitted but non-preemptible: they run whole on
	// dedicated nodes.
	Config scaleout.Config
	// Reads are the job's input reads. Optional when Seed is set.
	Reads []readsim.Read
	// Seed is an optional iteration-0 checkpoint blob for this exact
	// (Trace, Config) — scaleout.Checkpoint(reads, tr, cfg, 0). Supplying
	// it skips re-running the software prelude at admission, which is how
	// a load sweep memoizes many identical-shape jobs.
	Seed []byte
}

// Fleet is a fixed pool of simulated NMP nodes shared by many jobs.
type Fleet struct {
	// Nodes is the fleet size; every job's demand must fit it.
	Nodes int
	// Policy picks and preempts tenants; nil means FIFO.
	Policy Policy
	// Quantum is the fair-share possession budget in machine cycles;
	// <= 0 means DefaultQuantum. FIFO and priority ignore it.
	Quantum sim.Cycle
	// BytesPerCycle prices preemption checkpoint/restore I/O on the fleet
	// timeline; <= 0 means scaleout.DefaultCheckpointBytesPerCycle, and a
	// non-finite rate is rejected.
	BytesPerCycle float64
	// Telemetry, when non-nil, records the fleet timeline: one track per
	// fleet node (tenant possession slices, colored per tenant in the
	// Chrome export), one lifecycle track per tenant, and a scheduler
	// track of arrival/finish markers.
	Telemetry *telemetry.Collector
}

// TenantStats is one tenant's measured outcome on the fleet.
type TenantStats struct {
	ID        int
	Name      string
	Priority  int
	Demand    int
	Dedicated bool // ran whole on dedicated nodes (non-preemptible config)

	Arrival sim.Cycle
	Started sim.Cycle // first placement
	Finish  sim.Cycle
	Latency sim.Cycle // Finish - Arrival

	// ServiceCycles is the job's own machine-cycle total (equals its
	// uninterrupted Result.TotalCycles); OverheadCycles the checkpoint and
	// restore stalls charged on top; WaitCycles the queued remainder of
	// the latency.
	ServiceCycles   sim.Cycle
	OverheadCycles  sim.Cycle
	WaitCycles      sim.Cycle
	Preemptions     int
	Slices          int // placements (possessions)
	CheckpointBytes int64

	// Result is the finished run, reflect.DeepEqual to the uninterrupted
	// scaleout.Simulate of the same job.
	Result *scaleout.Result
}

// Schedule is a fleet simulation outcome.
type Schedule struct {
	Policy   string
	Nodes    int
	Quantum  sim.Cycle
	Jobs     int
	Makespan sim.Cycle

	Preemptions     int
	CheckpointBytes int64

	// BusyNodeCycles sums service × demand over tenants; StallNodeCycles
	// the checkpoint/restore stalls × demand. Utilization is
	// BusyNodeCycles / (Nodes × Makespan).
	BusyNodeCycles  sim.Cycle
	StallNodeCycles sim.Cycle
	Utilization     float64

	Tenants []TenantStats // in job order
}

// Throughput returns completed jobs per simulated second.
func (s *Schedule) Throughput() float64 {
	if s.Makespan == 0 {
		return 0
	}
	return float64(s.Jobs) / sim.Seconds(s.Makespan)
}

// String renders a deterministic summary: the fleet line plus one line
// per tenant. Two identical fleet simulations produce byte-identical
// strings (the determinism test pins this).
func (s *Schedule) String() string {
	out := fmt.Sprintf("tenancy: policy=%s nodes=%d jobs=%d makespan=%d util=%.4f preemptions=%d ckpt_bytes=%d\n",
		s.Policy, s.Nodes, s.Jobs, s.Makespan, s.Utilization, s.Preemptions, s.CheckpointBytes)
	for i := range s.Tenants {
		t := &s.Tenants[i]
		kind := "shared"
		if t.Dedicated {
			kind = "dedicated"
		}
		out += fmt.Sprintf("  %s: prio=%d demand=%d %s arrive=%d start=%d finish=%d latency=%d service=%d overhead=%d wait=%d preempt=%d slices=%d\n",
			t.Name, t.Priority, t.Demand, kind, t.Arrival, t.Started, t.Finish,
			t.Latency, t.ServiceCycles, t.OverheadCycles, t.WaitCycles, t.Preemptions, t.Slices)
	}
	return out
}

// tenant state machine.
type tstate uint8

const (
	tPending tstate = iota
	tRunning
	tDraining // capture stall after a yield, nodes still held
	tDone
)

// Tenant is one admitted job's live scheduling state. Policies read the
// exported fields; everything else belongs to the fleet loop.
type Tenant struct {
	ID        int
	Name      string
	Priority  int
	Arrival   sim.Cycle
	Demand    int
	Dedicated bool

	// ServiceCycles is the machine-cycle progress consumed so far;
	// Deficit the fair-share credit (refilled by Quantum per placement,
	// drained by measured slice cycles); Preemptions the yields so far.
	ServiceCycles sim.Cycle
	Deficit       sim.Cycle
	Preemptions   int

	spec  *Job
	state tstate
	blob  []byte            // checkpoint to resume from (nil once running)
	ses   *scaleout.Session // live while running (preemptible tenants)

	service sim.Cycle        // dedicated only: precomputed total
	result  *scaleout.Result // dedicated: precomputed; preemptible: set at finish

	nodes      []int // held fleet nodes
	lastDelta  sim.Cycle
	sliceIters int
	runStart   sim.Cycle // placement time plus restore stall
	waitFrom   sim.Cycle // arrival, or the release time of the last yield

	started         bool
	startAt         sim.Cycle
	finishAt        sim.Cycle
	overhead        sim.Cycle
	checkpointBytes int64
	slices          int

	track *telemetry.Track // lifecycle track (nil without telemetry)
}

// fleetRun is one Fleet.Run execution.
type fleetRun struct {
	f       Fleet
	pol     Policy
	quantum sim.Cycle
	bpc     float64

	eng     *sim.Engine
	tenants []*Tenant
	pending []*Tenant // sorted by (Arrival, ID)
	running []*Tenant // sorted by ID
	free    []bool
	nfree   int

	err error // first tenant error; aborts result assembly

	sched      *telemetry.Track   // scheduler marker track
	nodeTracks []*telemetry.Track // one per fleet node
}

// price converts blob bytes to a stall, ceiling division like the elastic
// runtime's checkpoint charge.
func (r *fleetRun) price(bytes int) sim.Cycle {
	if bytes <= 0 {
		return 0
	}
	return sim.Cycle(math.Ceil(float64(bytes) / r.bpc))
}

// fail records the first error and lets the event loop drain.
func (r *fleetRun) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Run simulates the fleet over the job list and returns the schedule.
// Jobs may be passed in any order; arrival cycles drive admission. The
// simulation is fully deterministic.
func (f Fleet) Run(jobs []Job) (*Schedule, error) {
	if f.Nodes < 1 {
		return nil, fmt.Errorf("tenancy: fleet needs at least one node, got %d", f.Nodes)
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("tenancy: no jobs")
	}
	if math.IsNaN(f.BytesPerCycle) || math.IsInf(f.BytesPerCycle, 0) {
		return nil, fmt.Errorf("tenancy: BytesPerCycle must be finite, got %g", f.BytesPerCycle)
	}
	r := &fleetRun{
		f:       f,
		pol:     f.Policy,
		quantum: f.Quantum,
		bpc:     f.BytesPerCycle,
		eng:     &sim.Engine{},
		free:    make([]bool, f.Nodes),
		nfree:   f.Nodes,
	}
	if r.pol == nil {
		r.pol = FIFO{}
	}
	if r.quantum <= 0 {
		r.quantum = DefaultQuantum
	}
	if r.bpc <= 0 {
		r.bpc = scaleout.DefaultCheckpointBytesPerCycle
	}
	for i := range r.free {
		r.free[i] = true
	}
	for i := range jobs {
		t, err := r.admitSpec(&jobs[i], i)
		if err != nil {
			return nil, err
		}
		r.tenants = append(r.tenants, t)
	}
	if c := f.Telemetry; c != nil {
		// Track creation order is fixed before the event loop: scheduler,
		// fleet nodes, tenants in job order — the Chrome export is
		// byte-identical across runs.
		r.sched = c.NewTrack(telemetry.TrackFleet, 0, "scheduler")
		r.nodeTracks = make([]*telemetry.Track, f.Nodes)
		for i := range r.nodeTracks {
			r.nodeTracks[i] = c.NewTrack(telemetry.TrackFleet, 1+i, fmt.Sprintf("fleet%d", i))
		}
		for _, t := range r.tenants {
			t.track = c.NewTrack(telemetry.TrackFleet, 1+f.Nodes+t.ID, t.Name)
			c.SetLabel(int64(t.ID), t.Name)
		}
	}
	for _, t := range r.tenants {
		tt := t
		r.eng.At(tt.Arrival, func() { r.admit(tt) })
	}
	r.eng.Run()
	if r.err != nil {
		return nil, r.err
	}
	for _, t := range r.tenants {
		if t.state != tDone {
			return nil, fmt.Errorf("tenancy: tenant %s never finished (scheduler stalled)", t.Name)
		}
	}
	return r.schedule(), nil
}

// admitSpec validates one job and classifies it preemptible or dedicated.
// Non-preemptible configurations are detected through the checkpoint
// layer's sentinel: scaleout.Checkpoint wraps ErrElasticConfig for
// elastic (fault-plan) runs, which then execute whole via
// scaleout.Simulate on dedicated nodes; the overlapped discipline (no
// mid-run global clock to slice on) is likewise dedicated, its service
// priced by a full restore or simulate.
func (r *fleetRun) admitSpec(j *Job, id int) (*Tenant, error) {
	t := &Tenant{
		ID:       id,
		Name:     j.Name,
		Priority: j.Priority,
		Arrival:  j.Arrival,
		Demand:   j.Config.Nodes,
		spec:     j,
		waitFrom: j.Arrival,
	}
	if t.Name == "" {
		t.Name = fmt.Sprintf("job%d", id)
	}
	if j.Trace == nil {
		return nil, fmt.Errorf("tenancy: job %s has no trace", t.Name)
	}
	if t.Demand < 1 || t.Demand > r.f.Nodes {
		return nil, fmt.Errorf("tenancy: job %s demands %d nodes of a %d-node fleet", t.Name, t.Demand, r.f.Nodes)
	}
	if t.Arrival < 0 {
		return nil, fmt.Errorf("tenancy: job %s arrives at negative cycle %d", t.Name, t.Arrival)
	}
	cfg := j.Config
	if j.Seed == nil {
		if j.Reads == nil {
			return nil, fmt.Errorf("tenancy: job %s needs Reads or a Seed blob", t.Name)
		}
		blob, err := scaleout.Checkpoint(j.Reads, j.Trace, cfg, 0)
		switch {
		case errors.Is(err, scaleout.ErrElasticConfig):
			// A fault-plan tenant: not externally checkpointable, so it is
			// queued for dedicated nodes and runs uninterrupted.
			res, err := scaleout.Simulate(j.Reads, j.Trace, cfg)
			if err != nil {
				return nil, fmt.Errorf("tenancy: job %s: %w", t.Name, err)
			}
			t.Dedicated, t.service, t.result = true, res.TotalCycles, res
			return t, nil
		case err != nil:
			return nil, fmt.Errorf("tenancy: job %s: %w", t.Name, err)
		}
		t.blob = blob
	} else {
		t.blob = j.Seed
	}
	if cfg.Overlap {
		res, err := scaleout.Restore(j.Trace, cfg, t.blob)
		if err != nil {
			return nil, fmt.Errorf("tenancy: job %s: %w", t.Name, err)
		}
		t.Dedicated, t.service, t.result = true, res.TotalCycles, res
		t.blob = nil
		return t, nil
	}
	if cfg.Telemetry != nil {
		return nil, fmt.Errorf("tenancy: job %s carries per-run telemetry; the fleet owns the timeline", t.Name)
	}
	return t, nil
}

// admit puts an arrived tenant on the pending queue.
func (r *fleetRun) admit(t *Tenant) {
	if r.err != nil {
		return
	}
	t.state = tPending
	r.enqueue(t)
	if r.sched != nil {
		now := r.eng.Now()
		r.sched.Add(telemetry.SpanTenant, now, now, int64(t.ID), 0)
	}
	r.reschedule()
}

// enqueue inserts into pending, keeping (Arrival, ID) order.
func (r *fleetRun) enqueue(t *Tenant) {
	i := sort.Search(len(r.pending), func(i int) bool {
		p := r.pending[i]
		if p.Arrival != t.Arrival {
			return p.Arrival > t.Arrival
		}
		return p.ID > t.ID
	})
	r.pending = append(r.pending, nil)
	copy(r.pending[i+1:], r.pending[i:])
	r.pending[i] = t
}

// reschedule greedily places pending tenants per the policy until nothing
// else fits.
func (r *fleetRun) reschedule() {
	if r.err != nil {
		return
	}
	for len(r.pending) > 0 && r.nfree > 0 {
		i := r.pol.Pick(r.pending, r.nfree)
		if i < 0 || i >= len(r.pending) || r.pending[i].Demand > r.nfree {
			return
		}
		t := r.pending[i]
		r.pending = append(r.pending[:i], r.pending[i+1:]...)
		r.place(t)
		if r.err != nil {
			return
		}
	}
}

// allocate claims the lowest-numbered free nodes.
func (r *fleetRun) allocate(t *Tenant) {
	t.nodes = t.nodes[:0]
	for i := 0; i < len(r.free) && len(t.nodes) < t.Demand; i++ {
		if r.free[i] {
			r.free[i] = false
			t.nodes = append(t.nodes, i)
		}
	}
	r.nfree -= t.Demand
}

// release frees a tenant's nodes and drops it from the running set.
func (r *fleetRun) release(t *Tenant) {
	for _, i := range t.nodes {
		r.free[i] = true
	}
	r.nfree += len(t.nodes)
	t.nodes = t.nodes[:0]
	for i, q := range r.running {
		if q == t {
			r.running = append(r.running[:i], r.running[i+1:]...)
			break
		}
	}
}

// place gives a tenant its nodes at the current cycle: a dedicated tenant
// runs whole; a preemptible one pays the restore stall for its blob,
// resumes a Session from it, and enters the per-iteration boundary chain.
func (r *fleetRun) place(t *Tenant) {
	now := r.eng.Now()
	r.allocate(t)
	i := sort.Search(len(r.running), func(i int) bool { return r.running[i].ID > t.ID })
	r.running = append(r.running, nil)
	copy(r.running[i+1:], r.running[i:])
	r.running[i] = t
	t.state = tRunning
	t.slices++
	if !t.started {
		t.started, t.startAt = true, now
	}
	if t.track != nil && now > t.waitFrom {
		t.track.Add(telemetry.SpanTenantWait, t.waitFrom, now, int64(t.ID), 0)
	}
	if t.Dedicated {
		t.runStart = now
		r.eng.After(t.service, func() { r.finishDedicated(t) })
		return
	}
	stall := r.price(len(t.blob))
	blobBytes := len(t.blob)
	ses, err := scaleout.ResumeSession(t.spec.Trace, t.spec.Config, t.blob)
	if err != nil {
		r.fail(fmt.Errorf("tenancy: resuming %s: %w", t.Name, err))
		return
	}
	t.ses, t.blob = ses, nil
	t.runStart = now + stall
	t.overhead += stall
	t.Deficit += r.quantum
	t.sliceIters = 0
	if stall > 0 {
		for _, n := range t.nodes {
			if r.nodeTracks != nil {
				r.nodeTracks[n].Add(telemetry.SpanTenantRestore, now, now+stall, int64(t.ID), int64(blobBytes))
			}
		}
		if t.track != nil {
			t.track.Add(telemetry.SpanTenantRestore, now, now+stall, int64(t.ID), int64(blobBytes))
		}
	}
	r.nextBoundary(t, now+stall)
}

// nextBoundary advances the tenant's session by one iteration (host-side;
// the fleet clock pays the measured machine cycles) and schedules the
// boundary decision event.
func (r *fleetRun) nextBoundary(t *Tenant, at sim.Cycle) {
	executed := t.ses.Step(1)
	t.sliceIters += executed
	p := t.ses.Progress()
	t.lastDelta = p - t.ServiceCycles
	t.ServiceCycles = p
	r.eng.At(at+t.lastDelta, func() { r.boundary(t) })
}

// boundary is the per-iteration decision point: finish, yield (checkpoint
// and hand the nodes over), or continue into the next iteration.
func (r *fleetRun) boundary(t *Tenant) {
	if r.err != nil {
		return
	}
	now := r.eng.Now()
	t.Deficit -= t.lastDelta
	if t.ses.Remaining() == 0 {
		res, err := t.ses.Finish()
		if err != nil {
			r.fail(fmt.Errorf("tenancy: finishing %s: %w", t.Name, err))
			return
		}
		t.result, t.ses = res, nil
		r.recordSlice(t, now)
		t.state = tDone
		t.finishAt = now
		if r.sched != nil {
			r.sched.Add(telemetry.SpanTenant, now, now, int64(t.ID), 1)
		}
		r.release(t)
		r.reschedule()
		return
	}
	if r.pol.Yield(t, r.pending, r.running, r.nfree) {
		r.preempt(t, now)
		return
	}
	r.nextBoundary(t, now)
}

// preempt checkpoints the tenant at the boundary it is paused on, charges
// the capture stall, and releases the nodes when the blob has drained.
func (r *fleetRun) preempt(t *Tenant, now sim.Cycle) {
	blob, err := t.ses.Checkpoint()
	if err != nil {
		r.fail(fmt.Errorf("tenancy: checkpointing %s: %w", t.Name, err))
		return
	}
	t.blob, t.ses = blob, nil
	t.Preemptions++
	t.checkpointBytes += int64(len(blob))
	stall := r.price(len(blob))
	t.overhead += stall
	t.state = tDraining
	r.recordSlice(t, now)
	if stall > 0 {
		for _, n := range t.nodes {
			if r.nodeTracks != nil {
				r.nodeTracks[n].Add(telemetry.SpanTenantCheckpoint, now, now+stall, int64(t.ID), int64(len(blob)))
			}
		}
		if t.track != nil {
			t.track.Add(telemetry.SpanTenantCheckpoint, now, now+stall, int64(t.ID), int64(len(blob)))
		}
	}
	r.eng.After(stall, func() {
		t.state = tPending
		t.waitFrom = r.eng.Now()
		r.release(t)
		r.enqueue(t)
		r.reschedule()
	})
}

// finishDedicated seals a dedicated tenant's single possession.
func (r *fleetRun) finishDedicated(t *Tenant) {
	if r.err != nil {
		return
	}
	now := r.eng.Now()
	t.ServiceCycles = t.service
	t.sliceIters = len(t.spec.Trace.Iterations)
	r.recordSlice(t, now)
	t.state = tDone
	t.finishAt = now
	if r.sched != nil {
		r.sched.Add(telemetry.SpanTenant, now, now, int64(t.ID), 1)
	}
	r.release(t)
	r.reschedule()
}

// recordSlice emits the possession's run span on every held node track
// and the tenant's lifecycle track.
func (r *fleetRun) recordSlice(t *Tenant, end sim.Cycle) {
	if end <= t.runStart {
		return
	}
	if r.nodeTracks != nil {
		for _, n := range t.nodes {
			r.nodeTracks[n].Add(telemetry.SpanTenant, t.runStart, end, int64(t.ID), int64(t.sliceIters))
		}
	}
	if t.track != nil {
		t.track.Add(telemetry.SpanTenant, t.runStart, end, int64(t.ID), int64(t.sliceIters))
	}
}

// schedule assembles the outcome.
func (r *fleetRun) schedule() *Schedule {
	s := &Schedule{
		Policy:  r.pol.Name(),
		Nodes:   r.f.Nodes,
		Quantum: r.quantum,
		Jobs:    len(r.tenants),
	}
	for _, t := range r.tenants {
		if t.finishAt > s.Makespan {
			s.Makespan = t.finishAt
		}
		ts := TenantStats{
			ID:              t.ID,
			Name:            t.Name,
			Priority:        t.Priority,
			Demand:          t.Demand,
			Dedicated:       t.Dedicated,
			Arrival:         t.Arrival,
			Started:         t.startAt,
			Finish:          t.finishAt,
			Latency:         t.finishAt - t.Arrival,
			ServiceCycles:   t.ServiceCycles,
			OverheadCycles:  t.overhead,
			Preemptions:     t.Preemptions,
			Slices:          t.slices,
			CheckpointBytes: t.checkpointBytes,
			Result:          t.result,
		}
		ts.WaitCycles = ts.Latency - ts.ServiceCycles - ts.OverheadCycles
		s.Tenants = append(s.Tenants, ts)
		s.Preemptions += t.Preemptions
		s.CheckpointBytes += t.checkpointBytes
		s.BusyNodeCycles += t.ServiceCycles * sim.Cycle(t.Demand)
		s.StallNodeCycles += t.overhead * sim.Cycle(t.Demand)
	}
	if s.Makespan > 0 {
		s.Utilization = float64(s.BusyNodeCycles) / (float64(s.Nodes) * float64(s.Makespan))
	}
	return s
}
