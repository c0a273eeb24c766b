package scaleout

import (
	"encoding/binary"
	"testing"

	"nmppak/internal/trace"
)

// fuzzSeed is a valid checkpoint blob for the corpus together with the
// trace and config it restores under: flipped and truncated variants of
// real bytes probe much deeper than random noise.
type fuzzSeed struct {
	blob []byte
	tr   *trace.Trace
	cfg  Config
}

// fuzzSeeds builds two seeds with distinct node counts: an empty trace
// paused at iteration 0, and a rebalancing run paused mid-trace, whose
// restore replays a recorded prefix with migrations.
func fuzzSeeds(tb testing.TB) []fuzzSeed {
	empty := fuzzSeed{tr: &trace.Trace{K: 32}, cfg: DefaultConfig(2)}
	reads := testReads(tb, 6_000)
	mid := fuzzSeed{tr: testTrace(tb, reads, 32, 3), cfg: DefaultConfig(3)}
	mid.cfg.Partitioner = NewRebalancePartitioner(12, 1)
	at := len(mid.tr.Iterations) / 2
	if at == 0 {
		tb.Fatal("fuzz seed trace has fewer than 2 iterations")
	}
	var err error
	if empty.blob, err = Checkpoint(nil, empty.tr, empty.cfg, 0); err != nil {
		tb.Fatal(err)
	}
	if mid.blob, err = Checkpoint(reads, mid.tr, mid.cfg, at); err != nil {
		tb.Fatal(err)
	}
	if _, err := Restore(mid.tr, mid.cfg, mid.blob); err != nil {
		tb.Fatal(err)
	}
	return []fuzzSeed{empty, mid}
}

// FuzzRestoreBlob feeds arbitrary bytes into the checkpoint decode and
// restore paths. The contract under fuzzing: corrupted input must produce
// a clean error — never a panic, and never an allocation sized by an
// unvalidated length field (the structural caps in validate() bound every
// count before it sizes anything).
func FuzzRestoreBlob(f *testing.F) {
	seeds := fuzzSeeds(f)
	var tag [4]byte
	binary.LittleEndian.PutUint32(tag[:], CheckpointVersion)
	f.Add([]byte(checkpointMagic + string(tag[:]) + "garbage"))
	f.Add([]byte{})
	for _, sd := range seeds {
		blob := sd.blob
		f.Add(blob)
		f.Add(blob[:len(blob)/2])
		f.Add(blob[:len(checkpointMagic)+2])
		for _, i := range []int{len(checkpointMagic) + 1, len(blob) / 2, len(blob) - 3} {
			mut := append([]byte(nil), blob...)
			mut[i] ^= 0x40
			f.Add(mut)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := UnmarshalCheckpoint(data)
		if err != nil {
			return
		}
		// Structurally valid decodes must still restore without panicking:
		// either a clean run (a seed blob round-tripping) or a clean
		// mismatch error.
		for _, sd := range seeds {
			if ck.Nodes == sd.cfg.Nodes {
				_, _ = Restore(sd.tr, sd.cfg, data)
			}
		}
	})
}
