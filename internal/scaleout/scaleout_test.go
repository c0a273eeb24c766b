package scaleout

import (
	"reflect"
	"testing"

	"nmppak/internal/assemble"
	"nmppak/internal/compact"
	"nmppak/internal/dna"
	"nmppak/internal/genome"
	"nmppak/internal/kmer"
	"nmppak/internal/nmp"
	"nmppak/internal/pakgraph"
	"nmppak/internal/readsim"
	"nmppak/internal/trace"
)

// dnaKmer builds a valid 31-base key from an arbitrary word.
func dnaKmer(x uint64) dna.Kmer { return dna.Kmer(x & dna.KmerMask(31)) }

func testReads(t testing.TB, length int) []readsim.Read {
	t.Helper()
	g, err := genome.Generate(genome.Config{Length: length, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	reads, err := readsim.Simulate(g, readsim.Config{ReadLen: 100, Coverage: 15, ErrorRate: 0.005, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return reads
}

func testTrace(t testing.TB, reads []readsim.Read, k int, minCount uint32) *trace.Trace {
	t.Helper()
	b := trace.NewBuilder(k)
	_, err := assemble.Run(reads, assemble.Config{
		K: k, MinCount: minCount, Flow: compact.FlowPipelined, Observer: b,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b.Trace()
}

// Sharded counting must merge to the byte-identical single-node result:
// same k-mers, counts, terminal maps and pruning statistics, for any node
// count and either partitioner.
func TestShardedCountMergeEquivalence(t *testing.T) {
	reads := testReads(t, 20_000)
	want, err := kmer.Count(reads, kmer.Config{K: 32, MinCount: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Partitioner{HashPartitioner{}, NewMinimizerPartitioner(12)} {
		for _, n := range []int{1, 2, 3, 4, 8} {
			cfg := DefaultConfig(n)
			cfg.Partitioner = p
			sc, err := CountSharded(reads, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := sc.Merge()
			if !reflect.DeepEqual(got.Kmers, want.Kmers) {
				t.Fatalf("%s n=%d: merged k-mers differ (%d vs %d entries)", p.Name(), n, len(got.Kmers), len(want.Kmers))
			}
			if !reflect.DeepEqual(got.TermPrefix, want.TermPrefix) || !reflect.DeepEqual(got.TermSuffix, want.TermSuffix) {
				t.Fatalf("%s n=%d: terminal maps differ", p.Name(), n)
			}
			if got.TotalExtracted != want.TotalExtracted || got.PrunedKinds != want.PrunedKinds || got.PrunedMass != want.PrunedMass {
				t.Fatalf("%s n=%d: stats differ: %d/%d/%d vs %d/%d/%d", p.Name(), n,
					got.TotalExtracted, got.PrunedKinds, got.PrunedMass,
					want.TotalExtracted, want.PrunedKinds, want.PrunedMass)
			}
			// Every k-mer must live on the node the partitioner names.
			for i, sh := range sc.Shards {
				for _, kc := range sh.Kmers {
					if o := p.Owner(kc.Km, 32, n); o != i {
						t.Fatalf("%s n=%d: k-mer on node %d owned by %d", p.Name(), n, i, o)
					}
				}
			}
		}
	}
}

// Shard graphs must tile the single-node PaK-graph: the key sets partition
// it, and every MacroNode is structurally identical (sizes and extension
// mass).
func TestShardGraphEquivalence(t *testing.T) {
	reads := testReads(t, 20_000)
	res, err := kmer.Count(reads, kmer.Config{K: 32, MinCount: 3})
	if err != nil {
		t.Fatal(err)
	}
	want, err := pakgraph.Build(res)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 3, 4} {
		cfg := DefaultConfig(n)
		sc, err := CountSharded(reads, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sg, err := sc.BuildShardGraphs(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if sg.TotalMacroNodes() != want.Len() {
			t.Fatalf("n=%d: %d shard MacroNodes vs %d global", n, sg.TotalMacroNodes(), want.Len())
		}
		// A shard on its own has cross-shard extensions (its neighbors live
		// elsewhere), so structural validation runs on the stitched union.
		merged := &pakgraph.Graph{K: 32, Nodes: make(map[dna.Kmer]*pakgraph.MacroNode)}
		for _, g := range sg.Graphs {
			if err := merged.Merge(g); err != nil {
				t.Fatal(err)
			}
		}
		if err := merged.Validate(); err != nil {
			t.Fatalf("n=%d: merged shard graphs invalid: %v", n, err)
		}
		for i, g := range sg.Graphs {
			for key, mn := range g.Nodes {
				ref := want.Nodes[key]
				if ref == nil {
					t.Fatalf("n=%d shard %d: node %v not in global graph", n, i, key)
				}
				if mn.SizeBytes() != ref.SizeBytes() ||
					mn.TotalPrefixCount() != ref.TotalPrefixCount() ||
					mn.TotalSuffixCount() != ref.TotalSuffixCount() {
					t.Fatalf("n=%d shard %d: node %v structurally differs", n, i, key)
				}
			}
		}
	}
}

// An N=1 scale-out run is the single-node system: no exchange traffic, and
// a compaction phase cycle-identical to nmp.Simulate on the same trace.
func TestScaleOutN1MatchesNMP(t *testing.T) {
	reads := testReads(t, 20_000)
	tr := testTrace(t, reads, 32, 3)
	cfg := DefaultConfig(1)
	res, err := Simulate(reads, tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := nmp.Simulate(tr, cfg.NMP)
	if err != nil {
		t.Fatal(err)
	}
	if res.Compact.Total() != want.Cycles {
		t.Fatalf("N=1 compact phase %d cycles, single-node nmp.Simulate %d", res.Compact.Total(), want.Cycles)
	}
	if res.ExchangedBytes != 0 || res.HaloBytes != 0 || res.CommCycles != 0 {
		t.Fatalf("N=1 moved bytes over the interconnect: %d exchanged, %d halo, %d comm cycles",
			res.ExchangedBytes, res.HaloBytes, res.CommCycles)
	}
	if res.RemoteTNFrac != 0 {
		t.Fatalf("N=1 remote TN fraction %v", res.RemoteTNFrac)
	}
}

// ShardTrace with N=1 must reproduce the input trace exactly.
func TestShardTraceN1Identity(t *testing.T) {
	reads := testReads(t, 15_000)
	tr := testTrace(t, reads, 32, 3)
	st := ShardTrace(tr, 1, HashPartitioner{})
	if !reflect.DeepEqual(st.Traces[0], tr) {
		t.Fatal("N=1 sub-trace differs from the input trace")
	}
}

// ShardTrace must conserve ops: every node visit and update lands on
// exactly one shard, and transfers split local/remote.
func TestShardTraceConservation(t *testing.T) {
	reads := testReads(t, 15_000)
	tr := testTrace(t, reads, 32, 3)
	for _, n := range []int{2, 4, 8} {
		st := ShardTrace(tr, n, HashPartitioner{})
		var nodes, tns, upds int64
		for _, sub := range st.Traces {
			nodes += sub.TotalNodeOps()
			tns += sub.TotalTransfers()
			for i := range sub.Iterations {
				upds += int64(len(sub.Iterations[i].Updates))
			}
		}
		if nodes != tr.TotalNodeOps() {
			t.Fatalf("n=%d: %d node ops sharded vs %d global", n, nodes, tr.TotalNodeOps())
		}
		if tns != st.LocalTNs || st.LocalTNs+st.RemoteTNs != tr.TotalTransfers() {
			t.Fatalf("n=%d: transfers local %d remote %d vs global %d", n, st.LocalTNs, st.RemoteTNs, tr.TotalTransfers())
		}
		var wantUpds int64
		for i := range tr.Iterations {
			wantUpds += int64(len(tr.Iterations[i].Updates))
		}
		if upds != wantUpds {
			t.Fatalf("n=%d: %d updates sharded vs %d global", n, upds, wantUpds)
		}
	}
}

// Two runs of the same configuration must agree cycle for cycle, and
// scaling out must monotonically shrink total time on a
// compute-dominated workload.
func TestScaleOutDeterminismAndMonotonicity(t *testing.T) {
	reads := testReads(t, 20_000)
	tr := testTrace(t, reads, 32, 3)
	var prev *Result
	for _, n := range []int{1, 2, 4, 8} {
		cfg := DefaultConfig(n)
		a, err := Simulate(reads, tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Simulate(reads, tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a.TotalCycles != b.TotalCycles || a.ExchangedBytes != b.ExchangedBytes || a.CommCycles != b.CommCycles {
			t.Fatalf("n=%d: nondeterministic result: %d/%d cycles, %d/%d bytes",
				n, a.TotalCycles, b.TotalCycles, a.ExchangedBytes, b.ExchangedBytes)
		}
		if prev != nil && a.TotalCycles >= prev.TotalCycles {
			t.Fatalf("n=%d: %d cycles, not faster than %d nodes (%d cycles)",
				n, a.TotalCycles, prev.Nodes, prev.TotalCycles)
		}
		prev = a
	}
}

func TestPartitionerRangeAndDeterminism(t *testing.T) {
	for _, p := range []Partitioner{HashPartitioner{}, NewMinimizerPartitioner(8), NewRebalancePartitioner(8, 1)} {
		counts := make([]int, 7)
		for km := uint64(0); km < 10_000; km++ {
			o := p.Owner(dnaKmer(km*2654435761), 31, 7)
			if o < 0 || o >= 7 {
				t.Fatalf("%s: owner %d out of range", p.Name(), o)
			}
			if o != p.Owner(dnaKmer(km*2654435761), 31, 7) {
				t.Fatalf("%s: nondeterministic", p.Name())
			}
			counts[o]++
		}
		for i, c := range counts {
			if c == 0 {
				t.Fatalf("%s: node %d owns nothing", p.Name(), i)
			}
		}
		if p.Owner(dnaKmer(12345), 31, 1) != 0 {
			t.Fatalf("%s: single node must own everything", p.Name())
		}
	}
}
