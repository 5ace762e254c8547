package sim

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata golden files")

// orderModel runs a model that touches every primitive of the package —
// Sleep, Yield, Resource, Mutex, Gate, WaitGroup, sync and async PSLink
// flows, Mailbox, At/After callbacks and a Spawn from inside a process —
// and returns one line per dispatch: the virtual time and the resumed
// process, or "cb" for a callback.  Lines starting with "  " are notes
// the model itself writes, so the log also shows what each dispatch did.
func orderModel(t *testing.T) []string {
	t.Helper()
	e := NewEngine(7)
	var log []string
	e.onDispatch = func(at Time, p *Proc) {
		if p == nil {
			log = append(log, fmt.Sprintf("%d cb", at))
		} else {
			log = append(log, fmt.Sprintf("%d %s", at, p.Name()))
		}
	}
	note := func(format string, args ...any) {
		log = append(log, "  "+fmt.Sprintf(format, args...))
	}

	mds := NewResource(e, 2)
	mu := NewMutex(e)
	net := NewPSLink(e, "net", 1e9)
	disk := NewPSLink(e, "disk", 0.25e9)
	mb := NewMailbox()
	var gate Gate
	var wg WaitGroup
	wg.Add(4)

	e.At(Time(3*time.Millisecond), func() { note("at-3ms opens gate: %v", gate.Open()) })
	e.After(time.Millisecond, func() { note("after-1ms waiting=%d", gate.Waiting()) })

	for i := 0; i < 4; i++ {
		e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			defer wg.Done()
			p.Sleep(e.Jitter(time.Millisecond, 0.5))
			mds.Use(p, time.Duration(i+1)*500*time.Microsecond)
			mu.Lock(p)
			p.Yield()
			mu.Unlock()
			if i%2 == 0 {
				gate.Wait(p)
				note("w%d through gate", i)
			}
			net.Transfer(p, int64(i+1)*1e6)
			var pair WaitGroup
			pair.Add(2)
			net.TransferAsync(2e6, pair.Done)
			disk.TransferAsync(1e6, pair.Done)
			pair.Wait(p)
			mb.Put(Msg{Src: i, Tag: 1, Bytes: 8, Val: i * 10})
			if i == 3 {
				e.Spawn("late", func(q *Proc) {
					q.Sleep(250 * time.Microsecond)
					mb.Put(Msg{Src: 9, Tag: 2, Val: "late"})
					note("late put at %d", q.Now())
				})
			}
		})
	}
	e.Spawn("collector", func(p *Proc) {
		sum := 0
		for i := 3; i >= 0; i-- {
			sum += mb.Get(p, i, 1).Val.(int)
		}
		note("collector sum=%d late=%v", sum, mb.Get(p, 9, 2).Val)
		wg.Wait(p)
		note("collector saw all workers done")
		for k := 0; k < 3; k++ {
			p.Sleep(100 * time.Microsecond)
			p.Yield()
		}
	})
	e.Spawn("opener", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		gate.OpenAll()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	log = append(log, fmt.Sprintf("end %d net=%d disk=%d", e.Now(), net.Moved, disk.Moved))
	return log
}

// TestEventOrderGolden pins the exact dispatch sequence of orderModel.
// The engine's event order is part of every simulated result, so any
// change to the queue or to the process handoff must leave it identical.
// Run with -update to regenerate after a deliberate model change.
func TestEventOrderGolden(t *testing.T) {
	got := strings.Join(orderModel(t), "\n") + "\n"
	if again := strings.Join(orderModel(t), "\n") + "\n"; again != got {
		t.Fatal("event order differs between two runs of the same model")
	}
	golden := filepath.Join("testdata", "event_order.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("event order diverges at line %d: got %q, want %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("event order length %d lines, want %d", len(gl), len(wl))
	}
}

// TestCallbackPanicSurfacesFromRun checks that a panic inside an At
// callback propagates out of Run with its own value, and is not recorded
// as a failure of whichever process happened to be running around it.
func TestCallbackPanicSurfacesFromRun(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 4; i++ {
			p.Sleep(time.Millisecond)
		}
	})
	e.At(Time(1500*time.Microsecond), func() { panic("callback boom") })
	var runErr error
	got := func() (r any) {
		defer func() { r = recover() }()
		runErr = e.Run()
		return nil
	}()
	if got != "callback boom" {
		t.Fatalf("Run recovered %v (err %v), want the callback's panic value", got, runErr)
	}
	if e.failure != nil {
		t.Fatalf("callback panic was charged to a process: %v", e.failure)
	}
}

// BenchmarkEventLoop measures the event core alone: 64 processes each
// sleeping in a loop with staggered durations.  One op is one sleep
// event, so ns/op and allocs/op read per event.  Setup (spawns and the
// queue's first growth) is excluded: the timer starts from a callback
// once every process has parked on its warm-up sleep.
func BenchmarkEventLoop(b *testing.B) {
	const procs = 64
	e := NewEngine(1)
	remaining := 0
	for i := 0; i < procs; i++ {
		d := time.Duration(i%7+1) * time.Microsecond
		e.Spawn("p", func(p *Proc) {
			p.Sleep(d)
			for remaining > 0 {
				remaining--
				p.Sleep(d)
			}
		})
	}
	b.ReportAllocs()
	e.At(0, func() {
		remaining = b.N
		b.ResetTimer()
	})
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
