package sim

import "math"

// PSLink is a processor-sharing bandwidth link: at any instant, the n
// active flows each progress at capacity/n bytes per second.  It models
// shared network pipes (a storage network, a node's NIC) and aggregated
// disk groups, where concurrent transfers fairly split the hardware.
//
// The implementation uses the classic virtual-time trick: a monotone
// counter V advances at capacity/n bytes per second of real (virtual
// simulation) time, and a flow of S bytes admitted at V0 completes when
// V reaches V0+S.  Arrivals and departures cost O(log n).
type PSLink struct {
	e        *Engine
	capacity float64 // bytes per second
	name     string

	v     float64 // virtual bytes served per flow since start
	lastT Time
	flows psFlowHeap
	gen   uint64 // invalidates stale completion timers

	// Moved accumulates total bytes transferred, for utilization reports.
	Moved int64
}

type psFlow struct {
	finishV float64
	seq     uint64
	proc    *Proc  // blocked in Transfer; nil for an async flow
	done    func() // an async flow's completion callback
}

func (a *psFlow) before(b *psFlow) bool {
	if a.finishV != b.finishV {
		return a.finishV < b.finishV
	}
	return a.seq < b.seq
}

// psFlowHeap is a binary min-heap of flows ordered by (finishV, seq).
type psFlowHeap []*psFlow

func (h *psFlowHeap) push(f *psFlow) {
	q := append(*h, f)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !f.before(q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = f
	*h = q
}

func (h *psFlowHeap) pop() *psFlow {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	q = q[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && q[r].before(q[c]) {
				c = r
			}
			if !q[c].before(last) {
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

// NewPSLink returns a fair-share link with the given capacity in bytes
// per second.
func NewPSLink(e *Engine, name string, bytesPerSec float64) *PSLink {
	if bytesPerSec <= 0 {
		panic("sim: PSLink capacity must be positive")
	}
	return &PSLink{e: e, capacity: bytesPerSec, name: name, lastT: e.Now()}
}

// Capacity returns the link capacity in bytes per second.
func (l *PSLink) Capacity() float64 { return l.capacity }

// Active returns the number of in-flight flows.
func (l *PSLink) Active() int { return len(l.flows) }

// advance brings the virtual counter up to the current time.
func (l *PSLink) advance() {
	now := l.e.Now()
	if n := len(l.flows); n > 0 && now > l.lastT {
		l.v += float64(now-l.lastT) / 1e9 * l.capacity / float64(n)
	}
	l.lastT = now
}

// Transfer moves bytes through the link, blocking p for the fair-share
// duration.  Zero or negative sizes complete immediately.
func (l *PSLink) Transfer(p *Proc, bytes int64) {
	if bytes <= 0 {
		return
	}
	l.Moved += bytes
	l.advance()
	l.e.seq++
	f := &psFlow{finishV: l.v + float64(bytes), seq: l.e.seq, proc: p}
	l.flows.push(f)
	l.reschedule()
	p.park()
}

// TransferAsync starts a flow and invokes done (in engine context) when it
// completes, without blocking any process.  It lets one process drive
// several concurrent flows (e.g. a transfer that crosses both a network
// link and a disk group).
func (l *PSLink) TransferAsync(bytes int64, done func()) {
	if bytes <= 0 {
		l.e.After(0, done)
		return
	}
	l.Moved += bytes
	l.advance()
	l.e.seq++
	l.flows.push(&psFlow{finishV: l.v + float64(bytes), seq: l.e.seq, done: done})
	l.reschedule()
}

// reschedule (re)arms the single completion timer for the earliest
// finishing flow.
func (l *PSLink) reschedule() {
	l.gen++
	if len(l.flows) == 0 {
		return
	}
	gen := l.gen
	need := l.flows[0].finishV - l.v
	if need < 0 {
		need = 0
	}
	dt := need * float64(len(l.flows)) / l.capacity // seconds
	ns := Time(math.Ceil(dt * 1e9))
	l.e.At(l.e.Now()+ns+1, func() {
		if gen != l.gen {
			return
		}
		l.complete()
	})
}

// complete pops every flow whose virtual finish time has been reached.
func (l *PSLink) complete() {
	l.advance()
	const eps = 1e-6
	for len(l.flows) > 0 && l.flows[0].finishV <= l.v+eps {
		f := l.flows.pop()
		if f.proc != nil {
			f.proc.Wake()
		} else {
			l.e.After(0, f.done)
		}
	}
	l.reschedule()
}
