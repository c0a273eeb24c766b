// Measurement-driven re-partitioning: a RebalancePartitioner starts from
// a static minimizer super-bucket assignment (the communication-friendly
// scheme) and lets the distributed runtime migrate whole super-buckets
// from measured stragglers to measured idle nodes between compaction
// iterations. Unlike BalancedPartitioner — which predicts load once from
// a counting sample — the rebalancer reacts to the busy times the
// runtime actually records (compactOutcome.Durations), so it corrects
// skew the static sample could not see (repeat families whose replay
// cost is out of proportion to their k-mer mass, drift as compaction
// drains the graph). Migration is not free: every MacroNode whose bucket
// moves is charged over the interconnect at its traced size before the
// next iteration begins. In the runtime (runtime.go) the bucket table is
// the run's owner, and migrate and measure are its migration hook, under
// either discipline: a migration point ends a BSP stretch and an
// overlapped segment alike. The decisions read only measured durations
// and the trace, so a restore derives the whole ownership history again
// by replaying the recorded prefix; no table travels in a checkpoint.
package scaleout

import (
	"fmt"
	"sort"

	"nmppak/internal/dna"
	"nmppak/internal/sim"
	"nmppak/internal/telemetry"
	"nmppak/internal/trace"
)

// RebalancePartitioner assigns ownership by minimizer super-bucket (the
// BalancedBuckets-wide table every bucket scheme here shares) and marks
// the assignment as migratable: the distributed runtime re-shards the
// compaction replay between iterations, moving buckets off measured
// stragglers. Outside the compaction replay (counting, construction) the
// static initial assignment applies, so ownership stays a pure function
// of the key wherever nodes must agree without coordination.
type RebalancePartitioner struct {
	// M is the minimizer length defining the super-bucket migration unit.
	M int
	// Every is the rebalance period: ownership may change before
	// iterations Every, 2*Every, ... (>= 1).
	Every int
	// Trigger is the measured per-iteration imbalance (slowest node over
	// mean) below which a rebalance point leaves ownership alone; the
	// hysteresis keeps near-balanced replays from thrashing buckets back
	// and forth for marginal gains.
	Trigger float64
}

// NewRebalancePartitioner returns a rebalancing partitioner with m-mer
// buckets migrated every `every` iterations and the default 1.05
// imbalance trigger.
func NewRebalancePartitioner(m, every int) *RebalancePartitioner {
	if m < 1 {
		m = 1
	}
	if every < 1 {
		every = 1
	}
	return &RebalancePartitioner{M: m, Every: every, Trigger: 1.05}
}

// Name implements Partitioner.
func (p *RebalancePartitioner) Name() string {
	return fmt.Sprintf("rebalance%d/%d", p.M, p.Every)
}

// bucket maps a word to its minimizer super-bucket.
func (p *RebalancePartitioner) bucket(key dna.Kmer, kk int) int {
	return superBucket(key, kk, p.M)
}

// Owner implements Partitioner with the static initial assignment
// (initialOwner; the runtime's ownership table starts there and diverges
// as measurements arrive).
func (p *RebalancePartitioner) Owner(key dna.Kmer, kk, nodes int) int {
	if nodes <= 1 {
		return 0
	}
	return initialOwner(p.bucket(key, kk), nodes)
}

// migrate mutates the bucket ownership table, moving buckets from
// predicted stragglers to predicted idle nodes so that the end-of-run
// cumulative busy times — the quantity Result.Imbalance measures — meet
// in the middle. cum is the measured cumulative busy time per node, dur
// the last iteration's measured busy time, weight the last iteration's
// per-bucket traced MacroNode bytes (the proxy attributing a node's
// measured time to its buckets), and decay the trace-derived ratio of
// remaining work to the last iteration's work, which converts a one-
// iteration transfer into its effect on the rest of the run. Returns
// whether any bucket moved. Deterministic: ties break on the lower node
// index and lower bucket index.
func (p *RebalancePartitioner) migrate(table []uint16, cum, dur []sim.Cycle, weight []int64, decay float64, nodes int) bool {
	if decay <= 0 {
		return false // nothing left to rebalance for
	}
	// Predicted final cumulative busy time: what is banked plus the last
	// iteration's rate carried over the estimated remaining work.
	est := make([]float64, nodes)
	for i := range est {
		est[i] = float64(cum[i]) + float64(dur[i])*decay
	}
	load := make([]int64, nodes) // weight currently attributed per node
	for b, w := range weight {
		load[table[b]] += w
	}
	// Buckets grouped per node, heaviest first, for donor scans.
	byNode := make([][]int, nodes)
	for b, w := range weight {
		if w > 0 {
			o := table[b]
			byNode[o] = append(byNode[o], b)
		}
	}
	for _, bs := range byNode {
		sort.Slice(bs, func(i, j int) bool {
			if weight[bs[i]] != weight[bs[j]] {
				return weight[bs[i]] > weight[bs[j]]
			}
			return bs[i] < bs[j]
		})
	}
	moved := false
	for round := 0; round < nodes; round++ {
		donor, idle := 0, 0
		var mean float64
		for i := range est {
			mean += est[i]
			if est[i] > est[donor] {
				donor = i
			}
			if est[i] < est[idle] {
				idle = i
			}
		}
		mean /= float64(nodes)
		if mean <= 0 || est[donor] < p.Trigger*mean || donor == idle {
			break
		}
		if load[donor] <= 0 || dur[donor] <= 0 {
			break // no attributable weight to move
		}
		// cycles-per-weight rate of the donor, carried over the remaining
		// run, converts bucket weight into predicted final busy time; move
		// buckets until half the gap closes.
		rate := float64(dur[donor]) / float64(load[donor]) * decay
		target := (est[donor] - est[idle]) / 2
		var transferred float64
		rest := byNode[donor][:0]
		for _, b := range byNode[donor] {
			w := float64(weight[b]) * rate
			if transferred < target && transferred+w <= target*2 {
				table[b] = uint16(idle)
				load[donor] -= weight[b]
				load[idle] += weight[b]
				transferred += w
				byNode[idle] = append(byNode[idle], b)
				moved = true
				continue
			}
			rest = append(rest, b)
		}
		byNode[donor] = rest
		if transferred == 0 {
			break // every remaining donor bucket overshoots; stop
		}
		// Restore the recipient's heaviest-first order (the received batch
		// was appended out of place) in case a later round makes it the
		// donor.
		sort.Slice(byNode[idle], func(i, j int) bool {
			bi, bj := byNode[idle][i], byNode[idle][j]
			if weight[bi] != weight[bj] {
				return weight[bi] > weight[bj]
			}
			return bi < bj
		})
		est[donor] -= transferred
		est[idle] += transferred
	}
	return moved
}

// rebalancer is the migrating-ownership state of a run under a
// RebalancePartitioner: the bucket table the runtime's owner reads, and
// the measurements the next migration decision reads. None of it is
// checkpointed: a restore rebuilds it by replaying the recorded prefix
// (newRuntime), so a restored run migrates exactly as the uninterrupted
// one.
type rebalancer struct {
	p  *RebalancePartitioner
	k1 int

	table []uint16 // bucket -> owning node (mutated by migrations)
	// iterBytes[it] is the global traced MacroNode bytes remaining from
	// iteration it on; the suffix sums estimate how much work remains at
	// each rebalance point (compaction decays fast, so "rest of run over
	// last iteration" is the honest horizon for a migration's payoff).
	iterBytes []float64

	lastDur []sim.Cycle // previous iteration's measured busy time
	cum     []sim.Cycle // measured cumulative busy time
	weight  []int64     // previous iteration's per-bucket bytes
	prev    []uint16    // scratch: ownership before the last migration
}

// newRebalancer starts from the static initial assignment.
func newRebalancer(tr *trace.Trace, p *RebalancePartitioner, n int) *rebalancer {
	iters := len(tr.Iterations)
	rb := &rebalancer{
		p: p, k1: tr.K - 1,
		table:     make([]uint16, BalancedBuckets),
		iterBytes: make([]float64, iters+1),
		lastDur:   make([]sim.Cycle, n),
		cum:       make([]sim.Cycle, n),
		weight:    make([]int64, BalancedBuckets),
		prev:      make([]uint16, BalancedBuckets),
	}
	for it := iters - 1; it >= 0; it-- {
		var b float64
		for i := range tr.Iterations[it].Nodes {
			nd := &tr.Iterations[it].Nodes[i]
			b += float64(nd.D1 + nd.D2)
		}
		rb.iterBytes[it] = b + rb.iterBytes[it+1]
	}
	for b := range rb.table {
		rb.table[b] = uint16(initialOwner(b, n))
	}
	return rb
}

// owner resolves a key under the current ownership table.
func (rb *rebalancer) owner(key dna.Kmer) int {
	return int(rb.table[rb.p.bucket(key, rb.k1)])
}

// migrate is the migration hook at the boundary before iteration it:
// every Every iterations on a multi-node machine it re-fits ownership to
// the measured busy times and, when buckets move, prices the transfer
// over the network (straggler -> new owner). The decision is itself a
// global synchronization, so it runs where the barrier pair already
// closes a BSP superstep or an overlapped segment.
//
// Every live MacroNode appears in its iteration's trace (P1 visits the
// full live population each iteration), so pricing the move off
// iter.Nodes charges every node a bucket move relocates; a migration
// that moves only drained buckets (no live nodes left) is a no-op and
// is not counted.
func (r *runtime) migrate(it int) {
	rb := r.rb
	if rb == nil || it == 0 || it%rb.p.Every != 0 || r.n == 1 {
		return
	}
	iter := &r.tr.Iterations[it]
	copy(rb.prev, rb.table)
	lastBytes := rb.iterBytes[it-1] - rb.iterBytes[it]
	decay := 0.0
	if lastBytes > 0 {
		decay = rb.iterBytes[it] / lastBytes
	}
	if !rb.p.migrate(rb.table, rb.cum, rb.lastDur, rb.weight, decay, r.n) {
		return
	}
	move := mat(r.n)
	for i := range iter.Nodes {
		nd := &iter.Nodes[i]
		b := rb.p.bucket(nd.Key, rb.k1)
		if rb.prev[b] != rb.table[b] {
			move[rb.prev[b]][rb.table[b]] += int64(nd.D1 + nd.D2)
		}
	}
	mx := r.exchangeNow(move)
	if mx.TotalBytes > 0 {
		r.exchangedBytes += mx.TotalBytes
		r.res.MigratedBytes += mx.TotalBytes
		r.res.Rebalances++
		r.stall(telemetry.SpanMigration, it, mx.Cycles, mx.TotalBytes, &r.exchange)
	}
}

// measure records iteration it's measured busy times and per-bucket
// bytes for the next migration decision.
func (r *runtime) measure(it int) {
	rb := r.rb
	if rb == nil {
		return
	}
	for i := range rb.lastDur {
		rb.lastDur[i] = r.durations[i][it]
		rb.cum[i] += rb.lastDur[i]
	}
	clear(rb.weight)
	for i := range r.tr.Iterations[it].Nodes {
		nd := &r.tr.Iterations[it].Nodes[i]
		rb.weight[rb.p.bucket(nd.Key, rb.k1)] += int64(nd.D1 + nd.D2)
	}
}
