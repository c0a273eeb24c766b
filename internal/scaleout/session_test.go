package scaleout

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"nmppak/internal/sim"
)

// A session sliced into arbitrary Step / Checkpoint / ResumeSession
// sequences must finish reflect.DeepEqual to the uninterrupted Simulate,
// and every mid-run snapshot must be byte-identical to the one-shot
// Checkpoint at the same boundary — for the static partitioners and the
// dynamic-ownership (rebalance) runtime alike.
func TestSessionSliceEquivalence(t *testing.T) {
	reads := testReads(t, 20_000)
	tr := testTrace(t, reads, 32, 3)
	iters := len(tr.Iterations)
	if iters < 3 {
		t.Fatalf("workload too small: %d iterations", iters)
	}
	for _, tc := range []struct {
		name string
		cfg  func() Config
	}{
		{"hash", func() Config { return DefaultConfig(4) }},
		{"minimizer", func() Config {
			c := DefaultConfig(4)
			c.Partitioner = NewMinimizerPartitioner(12)
			return c
		}},
		{"rebalance", func() Config {
			c := DefaultConfig(4)
			c.Partitioner = NewRebalancePartitioner(12, 1)
			return c
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg()
			want, err := Simulate(reads, tr, cfg)
			if err != nil {
				t.Fatal(err)
			}

			// One session advanced iteration by iteration to completion.
			s, err := NewSession(reads, tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if s.Iterations() != iters || s.Next() != 0 || s.Remaining() != iters {
				t.Fatalf("fresh session at %d/%d (remaining %d)", s.Next(), s.Iterations(), s.Remaining())
			}
			last := s.Progress()
			for s.Remaining() > 0 {
				if got := s.Step(1); got != 1 {
					t.Fatalf("Step(1) executed %d iterations", got)
				}
				if p := s.Progress(); p < last {
					t.Fatalf("Progress went backwards: %d after %d", p, last)
				} else {
					last = p
				}
			}
			got, err := s.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("stepped session result differs from Simulate:\n%+v\nvs\n%+v", got, want)
			}
			if got.TotalCycles != last {
				t.Fatalf("final Progress %d != TotalCycles %d", last, got.TotalCycles)
			}
			if _, err := s.Finish(); err == nil {
				t.Fatal("second Finish succeeded")
			}
			if _, err := s.Checkpoint(); err == nil {
				t.Fatal("Checkpoint after Finish succeeded")
			}

			// A preemption chain: advance, snapshot, drop the session, resume
			// from the blob, repeat across every boundary — each snapshot must
			// match the one-shot Checkpoint blob, and the final Result the
			// uninterrupted run.
			s2, err := NewSession(reads, tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for b := 1; b < iters; b++ {
				s2.Step(1)
				blob, err := s2.Checkpoint()
				if err != nil {
					t.Fatal(err)
				}
				oneShot, err := Checkpoint(reads, tr, cfg, b)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(blob, oneShot) {
					t.Fatalf("session blob at boundary %d differs from one-shot Checkpoint", b)
				}
				s2, err = ResumeSession(tr, cfg, blob)
				if err != nil {
					t.Fatal(err)
				}
				if s2.Next() != b {
					t.Fatalf("resumed session at boundary %d, want %d", s2.Next(), b)
				}
			}
			got2, err := s2.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got2, want) {
				t.Fatalf("preempted-and-resumed result differs from Simulate:\n%+v\nvs\n%+v", got2, want)
			}
		})
	}
}

// Progress differences are the slice costs a fleet scheduler charges; the
// sum over any slicing must land exactly on TotalCycles, and a resumed
// session must report the same clock as the one it was carved from — the
// replayed prefix, migration stalls included.
func TestSessionProgressComposes(t *testing.T) {
	reads := testReads(t, 20_000)
	tr := testTrace(t, reads, 32, 3)
	for _, p := range []Partitioner{HashPartitioner{}, NewRebalancePartitioner(12, 1)} {
		cfg := DefaultConfig(3)
		cfg.Partitioner = p
		want, err := Simulate(reads, tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := p.(*RebalancePartitioner); ok && want.Rebalances == 0 {
			t.Fatal("rebalance workload never migrated; the replayed stalls would go unchecked")
		}
		s, err := NewSession(reads, tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var total sim.Cycle
		prev := s.Progress()
		for s.Remaining() > 0 {
			s.Step(2) // uneven slicing on purpose
			paused := s.Progress()
			blob, err := s.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			s, err = ResumeSession(tr, cfg, blob)
			if err != nil {
				t.Fatal(err)
			}
			p := s.Progress()
			if p != paused {
				t.Fatalf("%s: resumed at boundary %d with Progress %d, paused session had %d", cfg.Partitioner.Name(), s.Next(), p, paused)
			}
			total += p - prev
			prev = p
		}
		res, err := s.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("%s: sliced session result differs from Simulate", cfg.Partitioner.Name())
		}
		base := res.Count.Total() + res.Construct.Total()
		if base+total != res.TotalCycles {
			t.Fatalf("%s: slice costs sum to %d + base %d, TotalCycles is %d", cfg.Partitioner.Name(), total, base, res.TotalCycles)
		}
	}
}

// Session rejects what it cannot slice: elastic configs (with the
// ErrElasticConfig sentinel), the overlapped discipline, and telemetry.
func TestSessionValidation(t *testing.T) {
	reads := testReads(t, 20_000)
	tr := testTrace(t, reads, 32, 3)

	elastic := DefaultConfig(2)
	elastic.CheckpointEvery = 2
	if _, err := NewSession(reads, tr, elastic); !errors.Is(err, ErrElasticConfig) {
		t.Fatalf("elastic NewSession error = %v, want ErrElasticConfig", err)
	}

	overlap := DefaultConfig(2)
	overlap.Overlap = true
	if _, err := NewSession(reads, tr, overlap); err == nil {
		t.Fatal("overlapped NewSession succeeded")
	}

	blob, err := Checkpoint(reads, tr, DefaultConfig(2), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeSession(tr, elastic, blob); !errors.Is(err, ErrElasticConfig) {
		t.Fatalf("elastic ResumeSession error = %v, want ErrElasticConfig", err)
	}
	other := DefaultConfig(4)
	if _, err := ResumeSession(tr, other, blob); err == nil {
		t.Fatal("ResumeSession accepted a blob from a different node count")
	}
}

// The exported sentinel must surface through Checkpoint and Restore so a
// scheduler can errors.Is-detect non-preemptible (fault-plan) tenants.
func TestErrElasticConfigSentinel(t *testing.T) {
	reads := testReads(t, 20_000)
	tr := testTrace(t, reads, 32, 3)
	elastic := DefaultConfig(2)
	elastic.CheckpointEvery = 2

	if _, err := Checkpoint(reads, tr, elastic, 1); !errors.Is(err, ErrElasticConfig) {
		t.Fatalf("Checkpoint error = %v, want ErrElasticConfig", err)
	}
	blob, err := Checkpoint(reads, tr, DefaultConfig(2), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(tr, elastic, blob); !errors.Is(err, ErrElasticConfig) {
		t.Fatalf("Restore error = %v, want ErrElasticConfig", err)
	}
}
