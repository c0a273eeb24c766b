package scaleout

import (
	"nmppak/internal/dna"
	"nmppak/internal/trace"
)

// ShardedTrace is a global compaction trace split by MacroNode-key
// ownership: node i's sub-trace contains exactly the node visits, local
// TransferNode routes and destination updates of the keys it owns, while
// cross-node TransferNodes are lifted out of the sub-traces into a
// per-iteration halo-exchange byte matrix. Every sub-trace keeps all
// iterations (possibly empty) so the per-iteration lockstep of the
// distributed runtime lines up across nodes.
type ShardedTrace struct {
	Nodes  int
	Traces []*trace.Trace
	// Halo[it][src][dst] is the TransferNode bytes crossing from node src
	// to node dst during iteration it.
	Halo [][][]int64

	LocalTNs  int64 // TransferNodes whose source and destination share a node
	RemoteTNs int64 // TransferNodes crossing the interconnect
	HaloBytes int64
}

// shardIteration splits one global iteration across n nodes under ownerOf
// (a pure key -> node assignment): per-node sub-iterations carry the node
// visits, local transfers and updates of the keys each node owns, while
// cross-node TransferNode bytes accumulate into halo[src][dst]. The
// returned counters split transfers into local and remote; haloBytes is
// the remote payload total. ShardedTrace.extend applies it to every
// iteration it shards.
func shardIteration(iter *trace.Iteration, n int, ownerOf func(dna.Kmer) int, halo [][]int64) (subs []trace.Iteration, localTNs, remoteTNs, haloBytes int64) {
	owner := make([]int, len(iter.Nodes))
	local := make([]int32, len(iter.Nodes))
	subs = make([]trace.Iteration, n)
	for i := range iter.Nodes {
		o := ownerOf(iter.Nodes[i].Key)
		owner[i] = o
		local[i] = int32(len(subs[o].Nodes))
		subs[o].Nodes = append(subs[o].Nodes, iter.Nodes[i])
	}
	for _, tn := range iter.Transfers {
		s, d := owner[tn.SrcIdx], owner[tn.DstIdx]
		if s == d {
			localTNs++
			subs[s].Transfers = append(subs[s].Transfers, trace.TransferOp{
				SrcIdx: local[tn.SrcIdx], DstIdx: local[tn.DstIdx],
				TNBytes: tn.TNBytes, SuffixSide: tn.SuffixSide,
			})
			continue
		}
		remoteTNs++
		halo[s][d] += int64(tn.TNBytes)
		haloBytes += int64(tn.TNBytes)
	}
	for _, u := range iter.Updates {
		o := owner[u.DstIdx]
		subs[o].Updates = append(subs[o].Updates, trace.UpdateOp{
			DstIdx: local[u.DstIdx], ReadBytes: u.ReadBytes, WriteBytes: u.WriteBytes,
		})
	}
	for o := 0; o < n; o++ {
		subs[o].Stats = iter.Stats
		subs[o].Quantiles = trace.BuildQuantiles(subs[o].Nodes)
	}
	return subs, localTNs, remoteTNs, haloBytes
}

// ShardTrace splits tr across n nodes under partitioner p. With n == 1 the
// single sub-trace reproduces tr exactly (same nodes, transfers, updates
// and quantile tables), which is what pins the N=1 scale-out result to the
// single-node nmp.Simulate outcome.
func ShardTrace(tr *trace.Trace, n int, p Partitioner) *ShardedTrace {
	st := newShardedTrace(tr, n)
	k1 := tr.K - 1
	st.extend(tr, len(tr.Iterations), func(key dna.Kmer) int { return p.Owner(key, k1, n) })
	return st
}

// newShardedTrace returns an n-way split of tr with no iteration sharded
// yet.
func newShardedTrace(tr *trace.Trace, n int) *ShardedTrace {
	st := &ShardedTrace{Nodes: n, Traces: make([]*trace.Trace, n)}
	for i := range st.Traces {
		st.Traces[i] = &trace.Trace{K: tr.K}
	}
	return st
}

// extend shards tr's iterations [len(st.Halo), to) under ownerOf,
// appending each node's sub-iterations and each iteration's halo matrix
// and accumulating the traffic counters. The runtime extends its split
// one stretch or segment at a time, because a migrating or failing-over
// owner changes between them; ShardTrace extends over the whole trace.
func (st *ShardedTrace) extend(tr *trace.Trace, to int, ownerOf func(dna.Kmer) int) {
	for it := len(st.Halo); it < to; it++ {
		halo := mat(st.Nodes)
		subs, l, r, hb := shardIteration(&tr.Iterations[it], st.Nodes, ownerOf, halo)
		st.LocalTNs += l
		st.RemoteTNs += r
		st.HaloBytes += hb
		for o, t := range st.Traces {
			if it == 0 {
				t.Quantiles = subs[o].Quantiles
			}
			t.Iterations = append(t.Iterations, subs[o])
		}
		st.Halo = append(st.Halo, halo)
	}
}

// truncate drops every sharded iteration from it on (the traffic counters
// are the caller's to restore).
func (st *ShardedTrace) truncate(it int) {
	st.Halo = st.Halo[:it]
	for _, t := range st.Traces {
		t.Iterations = t.Iterations[:it]
	}
}

// RemoteTNFrac is the fraction of all TransferNodes that cross the
// interconnect.
func (st *ShardedTrace) RemoteTNFrac() float64 {
	return remoteTNFrac(st.LocalTNs, st.RemoteTNs)
}

// remoteTNFrac is the remote share of a local/remote transfer split.
func remoteTNFrac(local, remote int64) float64 {
	t := local + remote
	if t == 0 {
		return 0
	}
	return float64(remote) / float64(t)
}
