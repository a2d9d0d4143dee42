package sim

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// The loop's event queue against the obvious implementation: a slice kept
// sorted by (at, seq). runScript drives both with the same operations and
// compares what fires, in which order, at what time.

// refEvent is one scheduled callback of the reference.
type refEvent struct {
	at     time.Duration
	seq    uint64
	id     int
	period time.Duration // > 0: periodic
	spawn  time.Duration // >= 0: firing schedules a one-shot child this much later
	live   bool          // still due to fire (again)
}

// firing is one log line: which callback ran, and when.

type firing struct {
	id int
	at time.Duration
}

// reference is the model: pending holds the live events sorted by (at, seq).
type reference struct {
	now     time.Duration
	seq     uint64
	nextID  int
	pending []*refEvent
	log     []firing
}

func (r *reference) schedule(at, period, spawn time.Duration) *refEvent {
	if at < r.now {
		at = r.now
	}
	ev := &refEvent{at: at, id: r.nextID, period: period, spawn: spawn}
	r.nextID++
	r.queue(ev)
	return ev
}

func (r *reference) queue(ev *refEvent) {
	ev.seq, ev.live = r.seq, true
	r.seq++
	i := sort.Search(len(r.pending), func(i int) bool {
		p := r.pending[i]
		return p.at > ev.at || (p.at == ev.at && p.seq > ev.seq)
	})
	r.pending = append(r.pending, nil)
	copy(r.pending[i+1:], r.pending[i:])
	r.pending[i] = ev
}

func (r *reference) stop(ev *refEvent) bool {
	if !ev.live {
		return false
	}
	ev.live = false
	for i, p := range r.pending {
		if p == ev {
			r.pending = append(r.pending[:i], r.pending[i+1:]...)
		}
	}
	return true
}

func (r *reference) step() bool {
	if len(r.pending) == 0 {
		return false
	}
	ev := r.pending[0]
	r.pending = r.pending[1:]
	r.now = ev.at
	r.log = append(r.log, firing{ev.id, r.now})
	ev.live = false
	if ev.spawn >= 0 {
		r.schedule(r.now+ev.spawn, 0, -1)
	}
	if ev.period > 0 {
		ev.at = r.now + ev.period
		r.queue(ev) // after the callback: a fresh sequence number
	}
	return true
}

func (r *reference) runUntil(deadline time.Duration) {
	for len(r.pending) > 0 && r.pending[0].at <= deadline {
		r.step()
	}
	if r.now < deadline {
		r.now = deadline
	}
}

// script runs one program against a Loop and the reference.
type script struct {
	t      testing.TB
	prog   []byte
	l      *Loop
	ref    reference
	nextID int
	log    []firing
	timers []Timer
	refs   []*refEvent // refs[i] is what timers[i] scheduled
	// compactions counts Stop calls that shrank the heap; largest is the
	// most slots the heap held.
	compactions, largest int
}

func (s *script) next() byte {
	if len(s.prog) == 0 {
		return 0
	}
	b := s.prog[0]
	s.prog = s.prog[1:]
	return b
}

// callback builds the loop-side callback of the next event: it logs itself
// and, if asked, schedules one child.
func (s *script) callback(spawn time.Duration) func() {
	id := s.nextID
	s.nextID++
	return func() {
		s.log = append(s.log, firing{id, s.l.Now()})
		if spawn >= 0 {
			s.l.After(spawn, s.callback(-1))
		}
	}
}

func (s *script) stop(i int) {
	before := len(s.l.events)
	got, want := s.timers[i].Stop(), s.ref.stop(s.refs[i])
	if got != want {
		s.t.Fatalf("Stop() of timer %d = %v, the reference says %v", i, got, want)
	}
	if len(s.l.events) < before {
		s.compactions++
	}
	if s.timers[i].Pending() {
		s.t.Fatalf("timer %d is pending after Stop", i)
	}
}

func (s *script) compare(op string) {
	if len(s.log) != len(s.ref.log) {
		s.t.Fatalf("after %s: %d callbacks fired, the reference fired %d", op, len(s.log), len(s.ref.log))
	}
	for i, f := range s.log {
		if f != s.ref.log[i] {
			s.t.Fatalf("after %s: firing %d is callback %d at %v, the reference fired %d at %v", op, i, f.id, f.at, s.ref.log[i].id, s.ref.log[i].at)
		}
	}
	s.log, s.ref.log = s.log[:0], s.ref.log[:0]
	if s.l.Now() != s.ref.now {
		s.t.Fatalf("after %s: Now() = %v, the reference is at %v", op, s.l.Now(), s.ref.now)
	}
	if s.l.Pending() != len(s.ref.pending) {
		s.t.Fatalf("after %s: Pending() = %d, the reference holds %d", op, s.l.Pending(), len(s.ref.pending))
	}
}

// runScript interprets prog: every byte pair is one operation on both sides.
// Runs are short and stops come in bursts, so tombstones pile up in a heap a
// few levels deep and force compact.
func runScript(t testing.TB, prog []byte) *script {
	const ms = time.Millisecond
	s := &script{t: t, prog: prog, l: NewLoop(1)}
	add := func(tm Timer, ev *refEvent) {
		s.timers, s.refs = append(s.timers, tm), append(s.refs, ev)
	}
	for len(s.prog) > 0 {
		s.largest = max(s.largest, len(s.l.events))
		op, arg := s.next()%16, time.Duration(s.next())
		switch {
		case op < 5: // After, with a child on every fourth
			d, spawn := arg%16*ms, time.Duration(-1)
			if arg%4 == 0 {
				spawn = arg / 16 % 4 * ms
			}
			add(s.l.After(d, s.callback(spawn)), s.ref.schedule(s.ref.now+d, 0, spawn))
		case op < 7: // At, possibly in the past
			at := s.ref.now + (arg-64)*ms
			add(s.l.At(at, s.callback(-1)), s.ref.schedule(at, 0, -1))
		case op < 10: // Every
			p := (1 + arg%8) * ms
			add(s.l.Every(p, s.callback(-1)), s.ref.schedule(s.ref.now+p, p, -1))
		case op < 12: // Stop one handle, live or stale
			if len(s.timers) > 0 {
				s.stop(int(arg) * len(s.timers) / 256)
			}
		case op == 12: // Stop a run of the newest handles
			for i, n := len(s.timers)-1, int(arg%24); i >= 0 && n > 0; i, n = i-1, n-1 {
				s.stop(i)
			}
		case op == 13:
			if got, want := s.l.Step(), s.ref.step(); got != want {
				t.Fatalf("Step() = %v, the reference says %v", got, want)
			}
			s.compare("Step")
		case op == 14 || arg%64 != 0:
			deadline := s.ref.now + arg%4*ms
			s.l.RunUntil(deadline)
			s.ref.runUntil(deadline)
			s.compare("RunUntil")
		default: // Reset, rarely: every handle goes stale
			s.l.Reset()
			for _, ev := range s.ref.pending {
				ev.live = false
			}
			s.ref.now, s.ref.seq, s.ref.pending = 0, 0, nil
			s.compare("Reset")
		}
	}
	return s
}

// drain stops every periodic timer (Run does not return while one is live) and
// runs both sides dry.
func (s *script) drain() {
	for i, ev := range s.refs {
		if ev.period > 0 {
			s.stop(i)
		}
	}
	s.l.Run()
	for s.ref.step() {
	}
	s.compare("the final Run")
}

// TestHeapPopsInKeyOrder: 10,000 random operations, same firings in the same
// order at the same times as the sorted slice, with compactions along the way.
func TestHeapPopsInKeyOrder(t *testing.T) {
	prog := make([]byte, 2*10_000)
	rand.New(rand.NewSource(22)).Read(prog)
	s := runScript(t, prog)
	s.drain()
	if s.compactions < 100 || s.largest < 86 { // 86 slots: a fifth level
		t.Errorf("the script forced %d compactions on a heap of at most %d slots, want 100 and 86", s.compactions, s.largest)
	}
}

// FuzzLoopOrder holds the loop to the reference on whatever program the
// fuzzer finds.
func FuzzLoopOrder(f *testing.F) {
	f.Add([]byte{0, 5, 0, 5, 2, 3, 6, 20, 4, 3, 6, 31})
	f.Add([]byte{2, 0, 2, 1, 2, 2, 1, 9, 4, 2, 5, 0, 7, 0, 0, 4, 6, 9})
	seed := make([]byte, 512)
	rand.New(rand.NewSource(22)).Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, prog []byte) {
		// 256 operations: all-periodic programs fire timers × milliseconds
		// callbacks, and the reference pays a slice shift for each.
		if len(prog) > 512 {
			prog = prog[:512]
		}
		runScript(t, prog).drain()
	})
}
