package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// appendRecord appends r to path as one JSON line.
func appendRecord(path string, r record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no records", path)
	}
	return out, nil
}

// sameHost refuses records measured with different core counts: their
// times do not compare.
func sameHost(recs []record) error {
	for _, r := range recs[1:] {
		if r.NProc != recs[0].NProc || r.GOMAXPROCS != recs[0].GOMAXPROCS {
			return fmt.Errorf("refusing to compare records from nproc=%d gomaxprocs=%d with nproc=%d gomaxprocs=%d",
				recs[0].NProc, recs[0].GOMAXPROCS, r.NProc, r.GOMAXPROCS)
		}
	}
	return nil
}

// compareFiles prints, per workload and metric, the median of the base
// and new records and the new median's change relative to the base.
func compareFiles(w io.Writer, basePath, newPath string) error {
	base, err := readRecords(basePath)
	if err != nil {
		return err
	}
	next, err := readRecords(newPath)
	if err != nil {
		return err
	}
	if err := sameHost(append(append([]record(nil), base...), next...)); err != nil {
		return err
	}
	type key struct{ workload, metric string }
	collect := func(recs []record) map[key][]float64 {
		m := map[key][]float64{}
		for _, r := range recs {
			for name, v := range r.Result.Metrics {
				k := key{r.Workload, name}
				m[k] = append(m[k], v.Value)
			}
		}
		return m
	}
	b, n := collect(base), collect(next)
	keys := make([]key, 0, len(b))
	for k := range b {
		if _, ok := n[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	fmt.Fprintf(w, "%-14s %-36s %5s %14s %14s %9s\n", "workload", "metric", "runs", "base_p50", "new_p50", "change")
	for _, k := range keys {
		mb, mn := median(b[k]), median(n[k])
		change := "n/a"
		if mb != 0 {
			change = fmt.Sprintf("%+.2f%%", (mn-mb)/mb*100)
		}
		fmt.Fprintf(w, "%-14s %-36s %2d/%-2d %14.6g %14.6g %9s\n", k.workload, k.metric, len(b[k]), len(n[k]), mb, mn, change)
	}
	return nil
}
