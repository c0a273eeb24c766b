package sim

import (
	"math/rand"
	"testing"
)

func TestEventOrdering(t *testing.T) {
	var e Engine
	var order []int
	e.At(10, func() { order = append(order, 1) })
	e.At(5, func() { order = append(order, 0) })
	e.At(10, func() { order = append(order, 2) }) // FIFO at equal time
	end := e.Run()
	if end != 10 {
		t.Fatalf("end = %d", end)
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("order = %v", order)
	}
}

func TestNestedScheduling(t *testing.T) {
	var e Engine
	var hits []Cycle
	e.At(1, func() {
		hits = append(hits, e.Now())
		e.After(4, func() { hits = append(hits, e.Now()) })
	})
	e.Run()
	if len(hits) != 2 || hits[0] != 1 || hits[1] != 5 {
		t.Fatalf("hits = %v", hits)
	}
}

func TestPastSchedulingClamps(t *testing.T) {
	var e Engine
	ran := false
	e.At(100, func() {
		e.At(50, func() { // in the past: clamp to now
			if e.Now() != 100 {
				t.Errorf("clamped event at %d", e.Now())
			}
			ran = true
		})
	})
	e.Run()
	if !ran {
		t.Fatal("clamped event never ran")
	}
}

func TestSeconds(t *testing.T) {
	if Seconds(CyclesPerSecond) != 1.0 {
		t.Fatal("1.6e9 cycles must be 1 second")
	}
}

func TestPending(t *testing.T) {
	var e Engine
	e.At(1, func() {})
	if e.Pending() != 1 {
		t.Fatal("pending != 1")
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatal("pending after run")
	}
}

func TestReset(t *testing.T) {
	var e Engine
	e.At(3, func() { t.Error("dropped event ran") })
	e.Reset()
	if e.Pending() != 0 {
		t.Fatal("pending after reset")
	}
	ran := false
	e.At(7, func() { ran = true })
	if end := e.Run(); end != 7 || !ran {
		t.Fatalf("end = %d, ran = %v", end, ran)
	}
}

// refEngine is a straightforward reference scheduler — a flat list scanned
// for the (time, seq) minimum — replicating the semantics the previous
// container/heap implementation had. The 4-ary heap must fire events in
// exactly this order.
type refEngine struct {
	now  Cycle
	seq  int64
	evs  []event
	done bool
}

func (r *refEngine) Now() Cycle { return r.now }

func (r *refEngine) At(t Cycle, fn func()) {
	if t < r.now {
		t = r.now
	}
	r.seq++
	r.evs = append(r.evs, event{at: t, seq: r.seq, fn: fn})
}

func (r *refEngine) After(d Cycle, fn func()) { r.At(r.now+d, fn) }

func (r *refEngine) Run() Cycle {
	for len(r.evs) > 0 {
		m := 0
		for i := 1; i < len(r.evs); i++ {
			if lessEv(&r.evs[i], &r.evs[m]) {
				m = i
			}
		}
		ev := r.evs[m]
		r.evs = append(r.evs[:m], r.evs[m+1:]...)
		r.now = ev.at
		ev.fn()
	}
	return r.now
}

// scheduler is the engine surface the equivalence scenario drives.
type scheduler interface {
	Now() Cycle
	At(Cycle, func())
	After(Cycle, func())
	Run() Cycle
}

// runScenario drives a deterministic pseudo-random self-rescheduling event
// population and records (id, firing time) pairs, including FIFO ties and
// past-time clamps.
func runScenario(s scheduler, seed int64) []([2]int64) {
	rng := rand.New(rand.NewSource(seed))
	var log []([2]int64)
	id := int64(0)
	var spawn func(depth int) func()
	spawn = func(depth int) func() {
		me := id
		id++
		return func() {
			log = append(log, [2]int64{me, s.Now()})
			if depth >= 6 {
				return
			}
			kids := rng.Intn(3)
			for c := 0; c < kids; c++ {
				// Mix of future offsets, ties and past times (clamped).
				off := Cycle(rng.Intn(9)) - 2
				s.At(s.Now()+off, spawn(depth+1))
			}
		}
	}
	for i := 0; i < 24; i++ {
		s.At(Cycle(rng.Intn(11)), spawn(0))
	}
	s.Run()
	return log
}

func TestEngineMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		got := runScenario(&Engine{}, seed)
		want := runScenario(&refEngine{}, seed)
		if len(got) != len(want) {
			t.Fatalf("seed %d: fired %d events, reference fired %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: event %d = %v, reference %v", seed, i, got[i], want[i])
			}
		}
	}
}

// TestEngineAllocs pins the scheduler's allocation behaviour: once the heap
// has grown to its working size, At+Run must not allocate at all.
func TestEngineAllocs(t *testing.T) {
	var e Engine
	fn := func() {}
	round := func() {
		for i := 0; i < 512; i++ {
			e.At(e.Now()+Cycle(i*13%97), fn)
		}
		e.Run()
	}
	round() // grow the heap once
	if a := testing.AllocsPerRun(50, round); a != 0 {
		t.Errorf("allocs per 512-event round = %v, want 0", a)
	}
}

// TestReserveAllocs verifies Reserve makes even the first round
// allocation-free beyond the single pre-grow.
func TestReserveAllocs(t *testing.T) {
	fn := func() {}
	a := testing.AllocsPerRun(20, func() {
		var e Engine
		e.Reserve(256)
		for i := 0; i < 256; i++ {
			e.At(Cycle(i%31), fn)
		}
		e.Run()
	})
	// One allocation: the Reserve pre-grow itself.
	if a > 1 {
		t.Errorf("allocs per reserved round = %v, want <= 1", a)
	}
}
