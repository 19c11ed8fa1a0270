package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

// ringModel builds a 4-shard bidirectional ring that bounces tokens around
// while interleaving local work, and records every delivery as a per-shard
// trace. The model is pure event logic, so its traces must be identical for
// any worker count.
type ringModel struct {
	g      *ShardGroup
	fwd    [4]*Conduit[int]
	rev    [4]*Conduit[int]
	traces [4][]string
}

func newRingModel() *ringModel {
	m := &ringModel{g: NewShardGroup(4)}
	const delay = 5 * Microsecond
	for i := 0; i < 4; i++ {
		i := i
		dst := (i + 1) % 4
		m.fwd[i] = NewConduit(m.g, i, dst, delay, func(tok int) { m.bounce(dst, tok) })
	}
	for i := 0; i < 4; i++ {
		i := i
		dst := (i + 3) % 4
		m.rev[i] = NewConduit(m.g, i, dst, delay, func(tok int) { m.bounce(dst, tok) })
	}
	for i := 0; i < 4; i++ {
		i := i
		eng := m.g.Engine(i)
		for k := 0; k < 3; k++ {
			tok := i<<16 | k<<8 // hop count in the low byte
			eng.At(Time(1+i)*Microsecond+Time(k)*300*Nanosecond, func() {
				m.launch(i, tok)
			})
		}
	}
	return m
}

// launch does a bit of local-only work, then forwards the token both ways.
func (m *ringModel) launch(shard, tok int) {
	eng := m.g.Engine(shard)
	m.traces[shard] = append(m.traces[shard],
		fmt.Sprintf("%d@%v:%x", shard, eng.Now(), tok))
	if tok&0xff >= 12 {
		return
	}
	eng.After(700*Nanosecond, func() {
		m.fwd[shard].SendAfterDelay(tok + 1)
		m.rev[shard].SendAfterDelay(tok + 1)
	})
}

// bounce receives a token on shard and relaunches it there.
func (m *ringModel) bounce(shard, tok int) {
	m.launch(shard, tok)
}

func runRing(t *testing.T, workers int) ([4][]string, uint64) {
	t.Helper()
	m := newRingModel()
	m.g.Run(Second, workers)
	if got := m.g.Pending(); got != 0 {
		t.Fatalf("workers=%d: %d events pending after quiescent run", workers, got)
	}
	return m.traces, m.g.Fired()
}

// The ring's conduit traffic is fixed by the model: 12 seed tokens, each
// launch below hop 12 sends one token each way, so hop h carries 24·2^h
// messages and the run delivers 24·(2^12−1). Messages must hit that count
// exactly for every worker count; Batches depends on scheduling, so it is
// only checked for a floor.
func TestShardGroupStatsMessagesExact(t *testing.T) {
	const want = 24 * (1<<12 - 1)
	for _, workers := range []int{1, 2, 4} {
		m := newRingModel()
		m.g.Run(Second, workers)
		st := m.g.Stats()
		if st.Messages != want {
			t.Errorf("workers=%d: Stats().Messages = %d, want %d", workers, st.Messages, want)
		}
		if st.Batches < 4 {
			t.Errorf("workers=%d: Stats().Batches = %d, want at least one per shard", workers, st.Batches)
		}
	}
}

func TestShardGroupDeterministicAcrossWorkers(t *testing.T) {
	golden, goldenFired := runRing(t, 1)
	total := 0
	for _, tr := range golden {
		total += len(tr)
	}
	if total < 100 {
		t.Fatalf("ring model too quiet to prove anything: %d deliveries", total)
	}
	for _, workers := range []int{2, 3, 4, 8} {
		traces, fired := runRing(t, workers)
		if !reflect.DeepEqual(traces, golden) {
			t.Errorf("workers=%d: traces diverge from single-worker run", workers)
		}
		if fired != goldenFired {
			t.Errorf("workers=%d: fired %d events, single-worker run fired %d", workers, fired, goldenFired)
		}
	}
}

// Portal arrivals must fire before local events scheduled at the same
// instant, on every worker count — that tie-break is part of the
// determinism contract, so pin it explicitly.
func TestConduitArrivalBeatsLocalTie(t *testing.T) {
	const delay = 10 * Microsecond
	for _, workers := range []int{1, 2} {
		g := NewShardGroup(2)
		var order []string
		c := NewConduit(g, 0, 1, delay, func(string) { order = append(order, "portal") })
		g.Engine(1).At(Time(delay), func() { order = append(order, "local") })
		g.Engine(0).At(0, func() { c.SendAfterDelay("tok") })
		g.Run(Second, workers)
		if want := []string{"portal", "local"}; !reflect.DeepEqual(order, want) {
			t.Errorf("workers=%d: same-instant order = %v, want %v", workers, order, want)
		}
	}
}

func TestConduitLookaheadViolationPanics(t *testing.T) {
	g := NewShardGroup(2)
	c := NewConduit(g, 0, 1, 10*Microsecond, func(int) {})
	g.Engine(0).At(0, func() { c.Send(Microsecond, 7) })
	if msg := runPanic(t, g, 2); !strings.Contains(msg, "violates published bound") {
		t.Fatalf("panic = %q, want a lookahead-bound violation", msg)
	}
}

// Two conduits of one shard pair share a portal whose lookahead is the
// smaller delay, yet each Send is still held to its own conduit's delay,
// and the destination's LBTS follows the fast conduit: its 2 µs arrival
// fires before a local event at 3 µs.
func TestPortalMixedDelayPair(t *testing.T) {
	for _, workers := range []int{1, 2} {
		g := NewShardGroup(2)
		var order []string
		fast := NewConduit(g, 0, 1, 2*Microsecond, func(s string) { order = append(order, s) })
		slow := NewConduit(g, 0, 1, 10*Microsecond, func(s string) { order = append(order, s) })
		g.Engine(1).At(3*Microsecond, func() { order = append(order, "local") })
		g.Engine(0).At(0, func() {
			slow.SendAfterDelay("slow")
			fast.SendAfterDelay("fast")
		})
		g.Run(Second, workers)
		if want := []string{"fast", "local", "slow"}; !reflect.DeepEqual(order, want) {
			t.Errorf("workers=%d: order = %v, want %v", workers, order, want)
		}

		g = NewShardGroup(2)
		NewConduit(g, 0, 1, 2*Microsecond, func(int) {})
		slow10 := NewConduit(g, 0, 1, 10*Microsecond, func(int) {})
		eng := g.Engine(0)
		eng.At(0, func() { slow10.Send(eng.Now()+5*Microsecond, 1) })
		if msg := runPanic(t, g, workers); !strings.Contains(msg, "violates published bound") {
			t.Errorf("workers=%d: panic = %q, want the slow conduit's own bound violated", workers, msg)
		}
	}
}

// Due times going backwards on one conduit must panic out of Run, never
// deadlock it: both shards keep chattering across the cut, so the source
// is typically mid-batch, posting into the same portal, when the
// destination's drain fails.
func TestConduitDueTimesBackwardsPanics(t *testing.T) {
	const delay = 100 * Microsecond
	for _, workers := range []int{1, 2} {
		g := NewShardGroup(2)
		c := NewConduit(g, 0, 1, delay, func(int) {})
		chat := [2]*Conduit[int]{
			NewConduit(g, 0, 1, delay, func(int) {}),
			NewConduit(g, 1, 0, delay, func(int) {}),
		}
		for i := range chat {
			eng, out := g.Engine(i), chat[i]
			var chatter func()
			chatter = func() {
				out.SendAfterDelay(0)
				if eng.Now() < 2*Millisecond {
					eng.After(10*Nanosecond, chatter)
				}
			}
			eng.At(0, chatter)
		}
		eng := g.Engine(0)
		eng.At(Millisecond, func() {
			c.Send(eng.Now()+2*delay, 1)
			c.Send(eng.Now()+delay, 2)
		})
		if msg := runPanic(t, g, workers); !strings.Contains(msg, "due times went backwards") {
			t.Errorf("workers=%d: panic = %q, want due times going backwards", workers, msg)
		}
	}
}

// runPanic runs g and returns the panic Run raised, failing the test if
// Run returns normally or does not return within 30 seconds.
func runPanic(t *testing.T, g *ShardGroup, workers int) string {
	t.Helper()
	done := make(chan string, 1)
	go func() {
		defer func() { done <- fmt.Sprint(recover()) }()
		g.Run(Second, workers)
	}()
	select {
	case msg := <-done:
		if msg == "<nil>" {
			t.Fatalf("workers=%d: Run returned without panicking", workers)
		}
		return msg
	case <-time.After(30 * time.Second):
		t.Fatalf("workers=%d: Run deadlocked instead of panicking", workers)
		return ""
	}
}

// A panic inside a shard's event callback must surface from Run on the
// caller's goroutine for any worker count, not crash a worker.
func TestShardPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 2} {
		g := NewShardGroup(2)
		NewConduit(g, 0, 1, Microsecond, func(int) {})
		g.Engine(1).At(Millisecond, func() { panic("boom on shard 1") })
		if msg := runPanic(t, g, workers); !strings.Contains(msg, "boom on shard 1") {
			t.Fatalf("workers=%d: panic = %q, want original payload", workers, msg)
		}
	}
}

// The deadline caps execution: events past it stay queued (visible through
// Pending) and the group still terminates promptly even though the shards'
// conduit bounds never cover the far-future events.
func TestShardGroupDeadline(t *testing.T) {
	g := NewShardGroup(2)
	NewConduit(g, 0, 1, Microsecond, func(int) {})
	NewConduit(g, 1, 0, Microsecond, func(int) {})
	ran := 0
	g.Engine(0).At(Millisecond, func() { ran++ })
	g.Engine(0).At(2*Second, func() { t.Error("event past the deadline ran") })
	g.Engine(1).At(Second, func() { ran++ }) // exactly at the deadline: runs
	g.Run(Second, 2)
	if ran != 2 {
		t.Fatalf("ran %d events at or below the deadline, want 2", ran)
	}
	if got := g.Pending(); got != 1 {
		t.Fatalf("Pending() = %d after capped run, want the 1 far-future event", got)
	}
	if got := g.Fired(); got != 2 {
		t.Fatalf("Fired() = %d, want 2 aggregated across shards", got)
	}
}

// Sparse traffic must not creep toward the next event one lookahead at a
// time: with events seconds apart and microsecond lookahead, an unassisted
// bound ratchet would need ~10^6 rounds. The fast-forward pass makes this
// test complete instantly; a livelock here is a failure of that pass.
func TestShardGroupFastForwardSparseTraffic(t *testing.T) {
	g := NewShardGroup(2)
	c01 := NewConduit(g, 0, 1, Microsecond, func(int) {})
	var got []Time
	c10 := NewConduit(g, 1, 0, Microsecond, func(int) { got = append(got, g.Engine(0).Now()) })
	// Messages from an isolated far-future event chain: each hop crosses
	// seconds of simulated idle time.
	g.Engine(1).At(3*Second, func() { c10.SendAfterDelay(1) })
	g.Engine(0).At(7*Second, func() { c01.SendAfterDelay(2) })
	g.Engine(1).At(9*Second, func() { c10.Send(9*Second+Microsecond, 3) })
	g.Run(10*Second, 2)
	want := []Time{3*Second + Microsecond, 9*Second + Microsecond}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sparse deliveries at %v, want %v", got, want)
	}
}

func TestShardGroupRunTwicePanics(t *testing.T) {
	g := NewShardGroup(1)
	g.Run(Second, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("second Run did not panic")
		}
	}()
	g.Run(Second, 1)
}

func TestNewConduitRejectsBadArguments(t *testing.T) {
	g := NewShardGroup(2)
	for name, fn := range map[string]func(){
		"zero delay":  func() { NewConduit(g, 0, 1, 0, func(int) {}) },
		"self loop":   func() { NewConduit(g, 1, 1, Microsecond, func(int) {}) },
		"nil deliver": func() { NewConduit[int](g, 0, 1, Microsecond, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewConduit did not panic", name)
				}
			}()
			fn()
		}()
	}
}
