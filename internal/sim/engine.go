// Package sim implements a deterministic discrete-event simulator used to
// model HPC clusters and parallel storage systems.
//
// The engine advances a virtual clock over a priority queue of events.
// Simulated processes are goroutines that run one at a time.  There is
// no engine goroutine: a process that blocks (on a sleep, a resource, a
// link transfer, or a message) pops the next events itself, runs any
// callbacks inline, and hands control directly to the next process to
// resume — or keeps running when that event is its own.  Because at most
// one simulated goroutine executes at any moment, model code needs no
// locking and every run is a pure function of its configuration and seed.
//
// The package provides the primitives the higher layers are built from:
//
//   - Engine/Proc: clock, event queue, process spawning and sleeping
//   - Resource:    a k-server FIFO service center (metadata servers, disks)
//   - PSLink:      a processor-sharing (fair-share) bandwidth link
//     (networks, storage pipes) that charges each concurrent
//     flow an equal share of the capacity
//   - Mutex/Gate:  serialization and condition-style waiting
package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the run.
type Time int64

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Duration converts t (a span, not a point) to a time.Duration.
func (t Time) Duration() time.Duration { return time.Duration(t) }

type event struct {
	t    Time
	seq  uint64
	proc *Proc  // if non-nil, resume this process
	fn   func() // otherwise run this callback with no process current
}

func (a *event) before(b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// eventHeap is a binary min-heap of events ordered by (t, seq).  Events
// are stored by value, so scheduling one allocates nothing once the
// backing array has grown to the model's peak queue length.
type eventHeap []event

func (h *eventHeap) push(ev event) {
	q := append(*h, ev)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ev
	*h = q
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{} // drop the references held by the vacated slot
	q = q[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && q[r].before(&q[c]) {
				c = r
			}
			if !q[c].before(&last) {
				break
			}
			q[i] = q[c]
			i = c
		}
		q[i] = last
	}
	*h = q
	return top
}

// Engine is a discrete-event simulation run.  The zero value is not usable;
// call NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	queue   eventHeap
	live    map[*Proc]struct{}
	cur     *Proc // the process currently executing, if any
	rng     *rand.Rand
	failure any           // first process panic, reported by Run as an error
	cbPanic any           // a callback's panic value, re-raised by Run
	done    chan struct{} // signalled when dispatch stops handing out events

	onDispatch func(t Time, p *Proc) // test hook: every popped event, p nil for callbacks
}

// NewEngine returns an engine whose random service-time jitter is derived
// from seed.  Two engines with the same seed and the same model produce
// identical traces.
func NewEngine(seed int64) *Engine {
	return &Engine{
		live: make(map[*Proc]struct{}),
		rng:  rand.New(rand.NewSource(seed)),
		done: make(chan struct{}, 1),
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.  It must only be
// used from model code running inside the simulation.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Live returns the number of processes that have been spawned and not yet
// exited.  Periodic observers (tracers) use it to stop rescheduling
// themselves once the simulation's real work is done, so the event queue
// can drain.
func (e *Engine) Live() int { return len(e.live) }

// Jitter returns d perturbed by a uniform factor in [1-frac, 1+frac].
func (e *Engine) Jitter(d time.Duration, frac float64) time.Duration {
	if frac <= 0 {
		return d
	}
	f := 1 + frac*(2*e.rng.Float64()-1)
	return time.Duration(float64(d) * f)
}

func (e *Engine) schedule(t Time, p *Proc, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.queue.push(event{t: t, seq: e.seq, proc: p, fn: fn})
}

// At schedules fn to run at absolute time t, with no process current.
func (e *Engine) At(t Time, fn func()) { e.schedule(t, nil, fn) }

// After schedules fn to run d from now, with no process current.
func (e *Engine) After(d time.Duration, fn func()) { e.schedule(e.now+Time(d), nil, fn) }

// Proc is a simulated process: a goroutine whose execution is interleaved
// with virtual time by the engine.
type Proc struct {
	e      *Engine
	name   string
	resume chan struct{} // capacity 1: the handoff never blocks the sender
}

// Name returns the process name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process runs in.
func (p *Proc) Engine() *Engine { return p.e }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.e.now }

// Spawn creates a simulated process running fn.  The process starts at the
// current virtual time, after already-queued events.
func (e *Engine) Spawn(name string, fn func(*Proc)) *Proc {
	p := &Proc{e: e, name: name, resume: make(chan struct{}, 1)}
	e.live[p] = struct{}{}
	e.schedule(e.now, p, nil)
	go func() {
		<-p.resume
		defer func() {
			if r := recover(); r != nil {
				if e.failure == nil {
					e.failure = fmt.Sprintf("proc %q panicked: %v", p.name, r)
				}
			}
			delete(e.live, p)
			e.dispatch(nil)
		}()
		fn(p)
	}()
	return p
}

// dispatch pops events until one resumes a process, running callbacks
// inline with no process current.  It is called by the goroutine that
// gives up control — Run to start, a process that parks, a process that
// exits — so the next process is resumed directly, one goroutine switch
// per event.  It reports true when that process is self, which then just
// keeps running.  When the queue drains or a panic stops the run, it
// signals Run instead.
//
// Nothing may touch engine state after the resume send: the resumed
// process owns the engine from then on.
func (e *Engine) dispatch(self *Proc) bool {
	for e.failure == nil && e.cbPanic == nil && len(e.queue) > 0 {
		ev := e.queue.pop()
		e.now = ev.t
		if e.onDispatch != nil {
			e.onDispatch(ev.t, ev.proc)
		}
		if p := ev.proc; p != nil {
			e.cur = p
			if p == self {
				return true
			}
			p.resume <- struct{}{}
			return false
		}
		e.cur = nil
		if ev.fn != nil {
			e.callback(ev.fn)
		}
	}
	e.cur = nil
	e.done <- struct{}{}
	return false
}

// callback runs fn and keeps a panic for Run to re-raise.  fn may be
// running on a parked process's goroutine, and that process's own
// recover must not claim the panic as its failure.
func (e *Engine) callback(fn func()) {
	defer func() {
		if r := recover(); r != nil {
			e.cbPanic = r
		}
	}()
	fn()
}

// park blocks the calling process until some event resumes it.  The caller
// must have arranged for a wake-up (a queued event or registration with a
// primitive that will schedule one).
func (p *Proc) park() {
	if p.e.cur != p {
		// A simulated operation (sleep, resource, transfer) was invoked on
		// a Proc that is not the one currently executing — almost always a
		// handle or client created by one process being used from another.
		panic(fmt.Sprintf("sim: blocking operation on proc %q from a different goroutine (current: %q)",
			p.name, p.e.curName()))
	}
	if !p.e.dispatch(p) {
		<-p.resume
	}
}

func (e *Engine) curName() string {
	if e.cur == nil {
		return "<engine>"
	}
	return e.cur.name
}

// Block parks the process.  It is exported for primitives built outside
// this package; the waker must later call Proc.Wake.
func (p *Proc) Block() { p.park() }

// Wake schedules p to resume at the current virtual time.  It must be
// called from simulation context (another proc or an engine callback).
func (p *Proc) Wake() { p.e.schedule(p.e.now, p, nil) }

// Sleep suspends the process for d of virtual time.  Negative durations
// sleep zero.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.e.schedule(p.e.now+Time(d), p, nil)
	p.park()
}

// Yield reschedules the process at the current time behind already-queued
// events, allowing other ready processes to run first.
func (p *Proc) Yield() {
	p.e.schedule(p.e.now, p, nil)
	p.park()
}

// Run processes events until the queue is empty, then reports whether the
// simulation completed cleanly.  It returns an error if a process panicked
// or if processes remain blocked with no pending events (a model deadlock).
// A panic in a callback propagates out of Run with its original value.
func (e *Engine) Run() error {
	e.dispatch(nil)
	<-e.done
	if r := e.cbPanic; r != nil {
		e.cbPanic = nil
		panic(r)
	}
	if e.failure != nil {
		return fmt.Errorf("sim: %v", e.failure)
	}
	if len(e.live) > 0 {
		names := make([]string, 0, len(e.live))
		for p := range e.live {
			names = append(names, p.name)
		}
		sort.Strings(names)
		if len(names) > 8 {
			names = append(names[:8], "...")
		}
		return fmt.Errorf("sim: deadlock: %d processes blocked forever (%v)", len(e.live), names)
	}
	return nil
}

// RunProcs spawns one process per function and runs the engine to
// completion.  It is a convenience for tests and small models.
func (e *Engine) RunProcs(fns ...func(*Proc)) error {
	for i, fn := range fns {
		e.Spawn(fmt.Sprintf("proc-%d", i), fn)
	}
	return e.Run()
}
