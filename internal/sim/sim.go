// Package sim provides a minimal deterministic discrete-event simulation
// kernel shared by the DRAM, NMP and CPU timing models.
//
// Time is counted in memory-controller clock cycles. For the paper's
// configuration this is convenient: DDR4-3200 runs its command clock at
// 1600 MHz and the NMP processing elements run at 1.6 GHz (Table 2), so one
// simulator cycle is one PE cycle and one DRAM command slot (0.625 ns).
//
// The scheduler is an unboxed 4-ary min-heap over a typed event slice:
// pushing and popping never go through an interface, so the only
// allocations are slice growth (amortized, and reusable across Run calls
// via Reserve/Reset). Events are totally ordered by (time, sequence
// number), which makes the pop order — and therefore every simulation
// outcome — independent of heap layout details.
package sim

// Cycle is a point in simulated time (1 cycle = 0.625 ns at 1.6 GHz).
type Cycle = int64

// CyclesPerSecond for the 1.6 GHz domain.
const CyclesPerSecond = 1_600_000_000

// Seconds converts a cycle count to seconds.
func Seconds(c Cycle) float64 { return float64(c) / CyclesPerSecond }

type event struct {
	at  Cycle
	seq int64 // FIFO tie-break for determinism
	fn  func()
}

// lessEv is the total event order: earlier time first, FIFO at equal time.
func lessEv(a, b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Probe collects event-loop statistics when attached to an Engine. A nil
// probe (the default) disables collection; the hot paths then pay one
// predictable branch and zero allocations.
type Probe struct {
	// Dispatched counts events popped and executed by Run.
	Dispatched int64
	// MaxPending is the high-water mark of the event heap.
	MaxPending int
}

// Engine is a single-threaded event scheduler. The zero value is ready to
// use.
type Engine struct {
	now    Cycle
	seq    int64
	events []event // 4-ary min-heap ordered by lessEv
	probe  *Probe
}

// SetProbe attaches (or, with nil, detaches) an event-loop probe.
func (e *Engine) SetProbe(p *Probe) { e.probe = p }

// Now returns the current simulation time.
func (e *Engine) Now() Cycle { return e.now }

// Pending reports the number of unprocessed events.
func (e *Engine) Pending() int { return len(e.events) }

// Reserve pre-grows the event heap so the next n At/After calls do not
// reallocate.
func (e *Engine) Reserve(n int) {
	if cap(e.events)-len(e.events) >= n {
		return
	}
	grown := make([]event, len(e.events), len(e.events)+n)
	copy(grown, e.events)
	e.events = grown
}

// Reset drops all pending events while keeping the current time, sequence
// counter and heap capacity, so one Engine can be reused across
// independent scheduling rounds without reallocating.
func (e *Engine) Reset() {
	clear(e.events) // release closure references
	e.events = e.events[:0]
}

// At schedules fn at absolute time t (clamped to now).
func (e *Engine) At(t Cycle, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.events = append(e.events, event{at: t, seq: e.seq, fn: fn})
	e.siftUp(len(e.events) - 1)
	if e.probe != nil && len(e.events) > e.probe.MaxPending {
		e.probe.MaxPending = len(e.events)
	}
}

// After schedules fn d cycles from now.
func (e *Engine) After(d Cycle, fn func()) { e.At(e.now+d, fn) }

// Run processes events until none remain, returning the final time.
func (e *Engine) Run() Cycle {
	for len(e.events) > 0 {
		at, fn := e.pop()
		e.now = at
		if e.probe != nil {
			e.probe.Dispatched++
		}
		fn()
	}
	return e.now
}

// siftUp restores the heap property after appending at index i.
func (e *Engine) siftUp(i int) {
	ev := e.events[i]
	for i > 0 {
		p := (i - 1) / 4
		if !lessEv(&ev, &e.events[p]) {
			break
		}
		e.events[i] = e.events[p]
		i = p
	}
	e.events[i] = ev
}

// pop removes and returns the minimum event's time and callback.
func (e *Engine) pop() (Cycle, func()) {
	root := e.events[0]
	n := len(e.events) - 1
	last := e.events[n]
	e.events[n] = event{} // release the closure reference
	e.events = e.events[:n]
	if n > 0 {
		e.siftDown(last)
	}
	return root.at, root.fn
}

// siftDown places ev starting from the root, walking the 4-ary tree.
func (e *Engine) siftDown(ev event) {
	n := len(e.events)
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if lessEv(&e.events[j], &e.events[m]) {
				m = j
			}
		}
		if !lessEv(&e.events[m], &ev) {
			break
		}
		e.events[i] = e.events[m]
		i = m
	}
	e.events[i] = ev
}
