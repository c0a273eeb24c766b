// Session: an incrementally advanced distributed run, the pause/resume
// surface the multi-tenant fleet scheduler (internal/tenancy) drives.
//
// Checkpoint/Restore (checkpoint.go) pause a run exactly once, at one
// pre-chosen iteration; a Session instead holds the one compaction
// runtime (runtime.go) between iteration boundaries — the same type
// Simulate, Checkpoint and Restore construct and finish — so a scheduler
// can interleave "advance one iteration", "how many machine cycles has
// this job consumed so far", "snapshot it and give the nodes to someone
// else" and "finish it" in any order. The invariants that make
// time-slicing exact:
//
//   - Step composes: the BSP partial sums and the boundary hooks (the
//     migration decision of a RebalancePartitioner) accumulate
//     identically whether the iteration range is covered by one advance or
//     many — a hook fires at a boundary only when the loop goes on to
//     execute the iteration after it — so a session's final Result is
//     reflect.DeepEqual to the uninterrupted Simulate.
//   - Checkpoint at boundary b is byte-identical to the one-shot
//     scaleout.Checkpoint(reads, tr, cfg, b) blob, whether the session
//     was fresh or itself resumed from an earlier blob. ResumeSession
//     continues from any such blob: it replays the recorded prefix's
//     supersteps and migrations from the blob's durations, so the resumed
//     session stands exactly where the paused one stood.
//   - Progress is the run's cumulative machine-cycle clock at the current
//     boundary — software prelude, compute and exchange partial sums, and
//     the inter-superstep barriers between executed iterations — so slice
//     costs on a shared fleet timeline are exact differences of Progress.
//     At the final boundary Progress equals Result.TotalCycles.
//
// Sessions are BSP-only: the overlapped discipline replays its whole
// macro-schedule at restore time and exposes no mid-run global clock, so
// its slices cannot be priced on a fleet timeline. Elastic configurations
// (CheckpointEvery/Faults) are rejected with ErrElasticConfig, exactly
// like Checkpoint — their recovery owns the checkpoint machinery.
package scaleout

import (
	"fmt"

	"nmppak/internal/readsim"
	"nmppak/internal/sim"
	"nmppak/internal/trace"
)

// Session is a paused-between-iterations distributed run. Create one with
// NewSession (runs the software prelude) or ResumeSession (from a
// checkpoint blob); drive it with Step, snapshot it with Checkpoint, and
// seal it with Finish. Not safe for concurrent use.
type Session struct {
	// r is the compaction runtime every entry point drives, paused at
	// r.next; it reports into the prelude Result, finalized by Finish.
	r    *runtime
	err  error // first Step failure, reported by Checkpoint and Finish
	done bool
}

// validateSession rejects the configurations a Session cannot time-slice.
func validateSession(cfg Config) error {
	if cfg.elastic() {
		return fmt.Errorf("scaleout: Session pauses a deterministic run; %w", ErrElasticConfig)
	}
	if cfg.Overlap {
		return fmt.Errorf("scaleout: Session requires the BSP discipline (the overlapped schedule has no mid-run global clock to slice on); unset Overlap")
	}
	if cfg.Telemetry != nil {
		return fmt.Errorf("scaleout: Session does not drive run-level telemetry (the scheduler owns the fleet timeline); unset Telemetry")
	}
	return nil
}

// NewSession runs the software prelude (distributed counting and
// MacroNode construction) and returns a session paused at iteration 0.
func NewSession(reads []readsim.Read, tr *trace.Trace, cfg Config) (*Session, error) {
	net, err := validateRun(tr, cfg)
	if err != nil {
		return nil, err
	}
	if err := validateSession(cfg); err != nil {
		return nil, err
	}
	res, err := runPrelude(reads, cfg, net, nil)
	if err != nil {
		return nil, err
	}
	r, err := newRuntime(tr, net, cfg, res, nil)
	if err != nil {
		return nil, err
	}
	return &Session{r: r}, nil
}

// ResumeSession reconstructs a session from a checkpoint blob taken under
// the same (trace, config) — by scaleout.Checkpoint or a prior
// Session.Checkpoint — paused at the blob's resume iteration. The reads
// are not needed: the blob carries the software-phase outcome.
func ResumeSession(tr *trace.Trace, cfg Config, blob []byte) (*Session, error) {
	r, err := resume(tr, cfg, blob, validateSession)
	if err != nil {
		return nil, err
	}
	return &Session{r: r}, nil
}

// Iterations returns the trace's total compaction iteration count.
func (s *Session) Iterations() int { return s.r.iters }

// Next returns the current boundary: the first unexecuted iteration.
func (s *Session) Next() int { return s.r.next }

// Remaining returns how many iterations are still to execute.
func (s *Session) Remaining() int { return s.Iterations() - s.Next() }

// Step advances the run by up to n iterations (fewer if the trace ends
// first) and returns how many it executed. n <= 0 is a no-op.
func (s *Session) Step(n int) int {
	if s.done || s.err != nil || n <= 0 {
		return 0
	}
	from := s.Next()
	to := min(from+n, s.Iterations())
	if to <= from {
		return 0
	}
	if s.err = s.r.bsp(to); s.err != nil {
		return 0
	}
	return to - from
}

// Progress returns the run's cumulative machine cycles at the current
// boundary: the software prelude, the executed supersteps' compute and
// exchange sums, and the min(next, iters-1) inter-superstep barriers
// already crossed. At the final boundary this equals the finished
// Result.TotalCycles.
func (s *Session) Progress() sim.Cycle {
	return s.r.res.Count.Total() + s.r.res.Construct.Total() + s.r.now()
}

// Checkpoint exports the session's state at the current boundary as a
// versioned blob, byte-identical to scaleout.Checkpoint(reads, tr, cfg,
// s.Next()). The session stays usable; a preempting scheduler typically
// drops it and later calls ResumeSession with the blob.
func (s *Session) Checkpoint() ([]byte, error) {
	if s.done {
		return nil, fmt.Errorf("scaleout: Session already finished")
	}
	if s.err != nil {
		return nil, s.err
	}
	return s.r.checkpoint(s.r.next)
}

// Finish advances any remaining iterations, prices the closing barriers
// and returns the completed Result — reflect.DeepEqual to the
// uninterrupted Simulate(reads, tr, cfg), however the preceding Step /
// Checkpoint / ResumeSession sequence sliced the run. The session is
// sealed afterwards.
func (s *Session) Finish() (*Result, error) {
	if s.done {
		return nil, fmt.Errorf("scaleout: Session already finished")
	}
	s.done = true
	if s.err != nil {
		return nil, s.err
	}
	co, err := s.r.finish()
	if err != nil {
		return nil, err
	}
	finalize(s.r.res, co)
	return s.r.res, nil
}
