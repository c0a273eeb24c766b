// Checkpoint/restore driver: the cmd/experiments -checkpoint/-restore
// flag pair. CheckpointSave runs the scale-out workload up to the middle
// of its compaction trace and writes the paused state as a blob;
// RestoreLoad reads the blob back, finishes the run, and verifies the
// resumed result against the uninterrupted one — the same property the
// internal/conformance suite sweeps across the whole config matrix,
// demonstrated here on a real workload and a real file.
package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"

	"nmppak/internal/scaleout"
	"nmppak/internal/topo"
)

// checkpointConfig is the fixed demo configuration the -checkpoint and
// -restore invocations share (a blob is only restorable under the exact
// configuration it was taken under; the blob's digests enforce that): a
// 4-node routed torus running the measurement-driven rebalancing
// partitioner under BSP — the runtime with the most derived mid-run
// state, all of which the restore replays from the recorded durations
// rather than reading from the blob.
func checkpointConfig(c *Context) scaleout.Config {
	cfg := scaleout.DefaultConfig(4)
	cfg.K = c.W.K
	cfg.MinCount = c.W.MinCount
	cfg.Workers = c.W.Workers
	cfg.Topo = topo.Torus(0, 0)
	cfg.Partitioner = scaleout.NewRebalancePartitioner(12, 1)
	return cfg
}

// CheckpointSave pauses the scale-out run mid-compaction and writes the
// versioned blob to path. The write is crash-safe: the blob lands in a
// temp file beside the destination and is renamed into place only after a
// successful sync, so an interrupted save leaves either the previous file
// or nothing — never a truncated blob that a later -restore would reject.
func CheckpointSave(c *Context, path string) (*Report, error) {
	tr, err := c.Trace()
	if err != nil {
		return nil, err
	}
	cfg := checkpointConfig(c)
	// Pause at the middle boundary, clamped into [1, iters]: a one- or
	// two-iteration trace would otherwise round down to boundary 0 — a
	// legal blob, but a degenerate demo that replays the entire run on
	// restore. An empty trace has no boundary to pause at.
	iters := len(tr.Iterations)
	if iters == 0 {
		return nil, fmt.Errorf("experiments: workload compacted in zero iterations; nothing to checkpoint mid-run")
	}
	at := iters / 2
	if at < 1 {
		at = 1
	}
	if at > iters {
		at = iters
	}
	blob, err := scaleout.Checkpoint(c.Reads, tr, cfg, at)
	if err != nil {
		return nil, err
	}
	if err := writeFileAtomic(path, blob); err != nil {
		return nil, err
	}
	text := fmt.Sprintf(
		"checkpointed a %d-node %s %s run before compaction iteration %d of %d\n"+
			"blob: version %d, %d bytes (engine timing state + measured durations; the trace itself stays outside)\n"+
			"written atomically (temp file + rename); restore with: experiments -restore <file> (same workload flags)\n",
		cfg.Nodes, cfg.Topo.Kind, cfg.Partitioner.Name(), at, len(tr.Iterations),
		scaleout.CheckpointVersion, len(blob))
	return &Report{
		ID:    "checkpoint",
		Title: "mid-run checkpoint of the distributed runtime",
		Text:  text,
		Measured: map[string]float64{
			"blob_bytes":      float64(len(blob)),
			"checkpoint_iter": float64(at),
		},
	}, nil
}

// RestoreLoad reads a blob written by CheckpointSave (under the same
// workload), resumes the run to completion, and cross-checks the result
// bit for bit against the uninterrupted simulation.
func RestoreLoad(c *Context, r io.Reader) (*Report, error) {
	blob, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	tr, err := c.Trace()
	if err != nil {
		return nil, err
	}
	cfg := checkpointConfig(c)
	ck, err := scaleout.UnmarshalCheckpoint(blob)
	if err != nil {
		return nil, err
	}
	res, err := scaleout.Restore(tr, cfg, blob)
	if err != nil {
		return nil, err
	}
	want, err := scaleout.Simulate(c.Reads, tr, cfg)
	if err != nil {
		return nil, err
	}
	identical := reflect.DeepEqual(res, want)
	text := fmt.Sprintf(
		"resumed at compaction iteration %d of %d: %s\n"+
			"uninterrupted run:                       %s\n"+
			"bit-identical resume: %v\n",
		ck.ResumeIter, len(tr.Iterations), res, want, identical)
	rep := &Report{
		ID:    "restore",
		Title: "resume from a checkpoint blob, verified against the uninterrupted run",
		Text:  text,
		Measured: map[string]float64{
			"resume_iter":          float64(ck.ResumeIter),
			"bit_identical_resume": b2f(identical),
			"total_ms":             res.Seconds * 1e3,
			"rebalances":           float64(res.Rebalances),
		},
	}
	if !identical {
		return rep, fmt.Errorf("restored result is not bit-identical to the uninterrupted run")
	}
	return rep, nil
}

// writeFileAtomic publishes data at path through a same-directory temp
// file, fsync and rename — the standard crash-safe write: a reader (or a
// rerun after a crash) sees either the old complete file or the new
// complete file, never a prefix.
func writeFileAtomic(path string, data []byte) (err error) {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if _, err = f.Write(data); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	if err = os.Chmod(tmp, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// b2f renders a boolean as a measured 0/1.
func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
