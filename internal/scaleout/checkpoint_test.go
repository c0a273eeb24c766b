package scaleout

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"nmppak/internal/genome"
	"nmppak/internal/kmer"
	"nmppak/internal/readsim"
	"nmppak/internal/topo"
	"nmppak/internal/trace"
)

// Checkpointing mid-run and restoring must finish bit-identically to the
// uninterrupted run, on both disciplines.
func TestCheckpointRestoreEquivalence(t *testing.T) {
	reads := testReads(t, 20_000)
	tr := testTrace(t, reads, 32, 3)
	mid := len(tr.Iterations) / 2
	for _, overlap := range []bool{false, true} {
		cfg := DefaultConfig(4)
		cfg.Overlap = overlap
		want, err := Simulate(reads, tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := Checkpoint(reads, tr, cfg, mid)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Restore(tr, cfg, blob)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("overlap=%v: restored result differs from uninterrupted run:\n%+v\nvs\n%+v", overlap, got, want)
		}
	}
}

// The blob must be byte-deterministic and stable under a decode/encode
// round trip.
func TestCheckpointBlobDeterminism(t *testing.T) {
	reads := testReads(t, 20_000)
	tr := testTrace(t, reads, 32, 3)
	cfg := DefaultConfig(4)
	mid := len(tr.Iterations) / 2
	a, err := Checkpoint(reads, tr, cfg, mid)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Checkpoint(reads, tr, cfg, mid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same config produced different checkpoint blobs")
	}
	ck, err := UnmarshalCheckpoint(a)
	if err != nil {
		t.Fatal(err)
	}
	c, err := ck.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, c) {
		t.Fatal("decode/encode round trip changed the blob bytes")
	}
}

// Restore must reject — with an error, never a panic — every malformed or
// mismatched blob: truncations at any layer, wrong magic or version, and
// checkpoints taken under a different configuration or trace.
func TestRestoreErrorPaths(t *testing.T) {
	reads := testReads(t, 20_000)
	tr := testTrace(t, reads, 32, 3)
	cfg := DefaultConfig(4)
	blob, err := Checkpoint(reads, tr, cfg, len(tr.Iterations)/2)
	if err != nil {
		t.Fatal(err)
	}
	otherTrace := testTrace(t, reads, 32, 4) // different MinCount: different compaction
	head := len(checkpointMagic) + 4
	// A blob whose header tag and gob payload disagree about the version.
	mismatch := func() []byte {
		ck, err := UnmarshalCheckpoint(blob)
		if err != nil {
			t.Fatal(err)
		}
		ck.Version = CheckpointVersion + 1
		b, err := ck.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(b[len(checkpointMagic):], CheckpointVersion)
		return b
	}()

	for _, tc := range []struct {
		name string
		tr   *trace.Trace
		cfg  func() Config
		blob func() []byte
		want string
	}{
		{"empty blob", tr, nil, func() []byte { return nil }, "truncated"},
		{"header-only blob", tr, nil, func() []byte { return blob[:head] }, "decode"},
		{"truncated header", tr, nil, func() []byte { return blob[:head/2] }, "truncated"},
		{"truncated payload", tr, nil, func() []byte { return blob[:head+(len(blob)-head)/2] }, "decode"},
		{"truncated tail", tr, nil, func() []byte { return blob[:len(blob)-1] }, "decode"},
		{"header/payload version mismatch", tr, nil, func() []byte { return mismatch }, "match payload"},
		{"trailing garbage", tr, nil, func() []byte {
			return append(append([]byte(nil), blob...), 0xde, 0xad)
		}, "trailing"},
		{"bad magic", tr, nil, func() []byte {
			b := append([]byte(nil), blob...)
			b[0] ^= 0xff
			return b
		}, "magic"},
		{"wrong version", tr, nil, func() []byte {
			b := append([]byte(nil), blob...)
			binary.LittleEndian.PutUint32(b[len(checkpointMagic):], CheckpointVersion+1)
			return b
		}, "version"},
		{"corrupt payload", tr, nil, func() []byte {
			b := append([]byte(nil), blob...)
			for i := head; i < len(b); i += 7 {
				b[i] ^= 0xa5
			}
			return b
		}, "decode"},
		{"different K", tr, func() Config {
			c := DefaultConfig(4)
			c.K = 24
			return c
		}, nil, "K"},
		{"different topology", tr, func() Config {
			c := DefaultConfig(4)
			c.Topo = topo.Torus(0, 0)
			return c
		}, nil, "topology"},
		{"different node count", tr, func() Config { return DefaultConfig(8) }, nil, "nodes"},
		{"different discipline", tr, func() Config {
			c := DefaultConfig(4)
			c.Overlap = true
			return c
		}, nil, "overlap"},
		{"different partitioner", tr, func() Config {
			c := DefaultConfig(4)
			c.Partitioner = NewMinimizerPartitioner(12)
			return c
		}, nil, "partitioner"},
		{"different link bandwidth", tr, func() Config {
			c := DefaultConfig(4)
			c.Topo.BytesPerCycle = 2
			return c
		}, nil, "digest"},
		{"different NMP model", tr, func() Config {
			c := DefaultConfig(4)
			c.NMP.PEsPerChannel = 16
			return c
		}, nil, "digest"},
		{"different trace", otherTrace, nil, nil, "trace digest"},
		{"nil trace", nil, nil, nil, "nil trace"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := cfg
			if tc.cfg != nil {
				c = tc.cfg()
			}
			b := blob
			if tc.blob != nil {
				b = tc.blob()
			}
			res, err := Restore(tc.tr, c, b)
			if err == nil {
				t.Fatalf("Restore accepted the blob (result: %v)", res)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}

	// Checkpoint itself must reject out-of-range pause points.
	if _, err := Checkpoint(reads, tr, cfg, -1); err == nil {
		t.Error("Checkpoint accepted a negative iteration")
	}
	if _, err := Checkpoint(reads, tr, cfg, len(tr.Iterations)+1); err == nil {
		t.Error("Checkpoint accepted an iteration past the trace end")
	}
}

// A BalancedPartitioner's identity is its assignment table, not the Go
// form it is stored in: a blob captured with the value form must restore
// under the pointer form (same table), while a same-named partitioner
// built from a different sample must be rejected by the config digest.
func TestBalancedPartitionerIdentity(t *testing.T) {
	reads := testReads(t, 20_000)
	tr := testTrace(t, reads, 32, 3)
	kres, err := kmer.Count(reads, kmer.Config{K: 32, MinCount: 3})
	if err != nil {
		t.Fatal(err)
	}
	bp := NewBalancedPartitioner(kres, 12, 4)
	cfg := DefaultConfig(4)
	cfg.Partitioner = bp
	blob, err := Checkpoint(reads, tr, cfg, len(tr.Iterations)/2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Simulate(reads, tr, cfg)
	if err != nil {
		t.Fatal(err)
	}

	ptrCfg := cfg
	ptrCfg.Partitioner = &bp
	got, err := Restore(tr, ptrCfg, blob)
	if err != nil {
		t.Fatalf("pointer-form restore of a value-form blob: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("pointer-form restore diverged from the uninterrupted run")
	}

	other, err := kmer.Count(reads[:len(reads)/2], kmer.Config{K: 32, MinCount: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Partitioner{
		NewBalancedPartitioner(other, 12, 4),
		func() *BalancedPartitioner { o := NewBalancedPartitioner(other, 12, 4); return &o }(),
	} {
		bad := cfg
		bad.Partitioner = p
		if _, err := Restore(tr, bad, blob); err == nil || !strings.Contains(err.Error(), "digest") {
			t.Fatalf("same-named partitioner with a different table accepted: %v", err)
		}
	}
}

// A checkpoint taken immediately after a bucket migration — and at every
// later boundary — must restore, under either discipline, to a run that
// reproduces Result.Rebalances and Result.MigratedBytes of the
// uninterrupted run exactly: the blob carries no ownership table, so the
// restore derives the migrated table by replaying the recorded prefix.
func TestRebalanceCheckpointRoundTrip(t *testing.T) {
	g, err := genome.Generate(genome.Config{Length: 30_000, Seed: 11, RepeatFraction: 0.4, RepeatUnit: 700})
	if err != nil {
		t.Fatal(err)
	}
	reads, err := readsim.Simulate(g, readsim.Config{ReadLen: 100, Coverage: 15, ErrorRate: 0.005, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	tr := testTrace(t, reads, 32, 3)
	for _, overlap := range []bool{false, true} {
		cfg := DefaultConfig(8)
		cfg.Partitioner = NewRebalancePartitioner(12, 1)
		cfg.Overlap = overlap

		want, err := Simulate(reads, tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want.Rebalances == 0 {
			t.Fatalf("overlap=%v: workload never triggered a migration; the round trip would be vacuous", overlap)
		}

		// Pause right after the first migration point has executed (the
		// migration at iteration `Every` runs while advancing to Every+1),
		// and at every later boundary for good measure.
		for cut := 2; cut <= len(tr.Iterations); cut++ {
			blob, err := Checkpoint(reads, tr, cfg, cut)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Restore(tr, cfg, blob)
			if err != nil {
				t.Fatal(err)
			}
			if got.Rebalances != want.Rebalances || got.MigratedBytes != want.MigratedBytes {
				t.Fatalf("overlap=%v cut %d: restored run migrated %d buckets / %d bytes, uninterrupted %d / %d",
					overlap, cut, got.Rebalances, got.MigratedBytes, want.Rebalances, want.MigratedBytes)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("overlap=%v cut %d: restored rebalance result differs from uninterrupted run", overlap, cut)
			}
		}
	}
}
