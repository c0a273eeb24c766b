// Checkpoint/restore walkthrough: capture a compaction trace, start a
// multi-node scale-out simulation, pause it between compaction iterations
// into a versioned byte blob (here: a temp file, as a preempted job
// would), then restore from the blob and finish — and verify the resumed
// run lands bit-identically on the uninterrupted one. Also demonstrates
// the failure modes Restore guards against: truncated blobs and a
// mismatched configuration.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"reflect"

	"nmppak"
)

func main() {
	g, err := nmppak.GenerateGenome(nmppak.GenomeConfig{
		Length: 150_000, Seed: 5,
		RepeatFraction: 0.3, RepeatUnit: 400,
	})
	if err != nil {
		log.Fatal(err)
	}
	reads, err := nmppak.SimulateReads(g, nmppak.ReadConfig{
		ReadLen: 100, Coverage: 25, ErrorRate: 0.01, Seed: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	tr, _, err := nmppak.CaptureTrace(reads, 32, 3, 200)
	if err != nil {
		log.Fatal(err)
	}

	// An 8-node torus running the measurement-driven rebalancing
	// partitioner — the runtime with the most derived mid-run state
	// (migrated ownership table, measured busy times). None of it is in
	// the blob: the restore replays the recorded prefix and derives it
	// again, which makes it the most interesting thing to checkpoint.
	cfg := nmppak.DefaultScaleOutConfig(8)
	cfg.Topo = nmppak.TorusTopo(0, 0)
	cfg.Partitioner = nmppak.NewRebalancePartitioner(12, 1)

	uninterrupted, err := nmppak.SimulateScaleOut(reads, tr, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("uninterrupted: %s\n", uninterrupted)

	// Pause mid-compaction and write the blob where a preempted job would.
	at := len(tr.Iterations) / 2
	blob, err := nmppak.CheckpointScaleOut(reads, tr, cfg, at)
	if err != nil {
		log.Fatal(err)
	}
	path := filepath.Join(os.TempDir(), "nmppak-checkpoint.bin")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		log.Fatal(err)
	}
	defer os.Remove(path)
	fmt.Printf("checkpointed before iteration %d/%d: %d-byte version-%d blob -> %s\n",
		at, len(tr.Iterations), len(blob), nmppak.ScaleOutCheckpointVersion, path)

	// A later process restores: it needs the blob plus the same trace and
	// configuration (the blob's digests enforce the match) — not the reads.
	saved, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	resumed, err := nmppak.RestoreScaleOut(tr, cfg, saved)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resumed:       %s\n", resumed)
	fmt.Printf("bit-identical resume: %v (rebalances %d, migrated %d bytes in both)\n\n",
		reflect.DeepEqual(resumed, uninterrupted), resumed.Rebalances, resumed.MigratedBytes)

	// What Restore refuses.
	if _, err := nmppak.RestoreScaleOut(tr, cfg, saved[:len(saved)/3]); err != nil {
		fmt.Printf("truncated blob:       %v\n", err)
	}
	wrong := cfg
	wrong.Topo = nmppak.DragonflyTopo(0)
	if _, err := nmppak.RestoreScaleOut(tr, wrong, saved); err != nil {
		fmt.Printf("wrong topology:       %v\n", err)
	}
}
