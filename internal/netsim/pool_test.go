package netsim

import (
	"strings"
	"testing"

	"greenenvy/internal/sim"
)

func TestPacketPoolRecyclesZeroedPackets(t *testing.T) {
	pool := NewPacketPool()
	p := pool.Get()
	p.Flow, p.Seq, p.hops = 7, 1000, 3
	p.AddSACK(SACKBlock{Start: 1, End: 2})
	pool.Free(p)
	q := pool.Get()
	if q != p {
		t.Fatal("Get after Free did not reuse the freed packet")
	}
	if q.Flow != 0 || q.Seq != 0 || q.hops != 0 || q.NSACK != 0 || q.SACK[0] != (SACKBlock{}) || q.freed {
		t.Fatalf("reused packet not zeroed: %+v", *q)
	}
	pool.Free(q)
	if got, want := pool.Stats(), (PoolStats{Allocated: 1, Reused: 1, Live: 0}); got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}
}

// TestPacketPoolFreeDropsINT pins the telemetry rule: a CCA may still hold
// an ACK's INT slice after the ACK is freed, so recycling the packet must
// not hand the same backing array to the next packet.
func TestPacketPoolFreeDropsINT(t *testing.T) {
	pool := NewPacketPool()
	p := pool.Get()
	p.INT = append(make([]INTHop, 0, 4), INTHop{QueueBytes: 1})
	held := p.INT
	pool.Free(p)
	if p.INT != nil {
		t.Fatal("Free kept the INT slice; it must drop it, not truncate it for reuse")
	}
	q := pool.Get()
	q.INT = append(q.INT, INTHop{QueueBytes: 2})
	if held[0].QueueBytes != 1 {
		t.Fatalf("held telemetry overwritten by the recycled packet: %+v", held[0])
	}
}

func TestPacketPoolDoubleFreePanics(t *testing.T) {
	for _, pool := range []*PacketPool{NewPacketPool(), nil} {
		p := pool.Get()
		pool.Free(p)
		mustPanic(t, "freed twice", func() { pool.Free(p) })
	}
}

// TestFreedPacketIntoHandlerPanics covers the use-after-free guard on every
// entry point a packet travels through.
func TestFreedPacketIntoHandlerPanics(t *testing.T) {
	e := sim.NewEngine()
	pool := NewPacketPool()
	sink := HandlerFunc(func(*Packet) {})
	host := NewHost(1, "h")
	host.SetEgress(sink)
	link := NewLink(e, "l", 1e9, sim.Microsecond, NewDropTail(0, 0), sink)
	sw := NewSwitch(e, "s", 0)
	sw.Connect(1, sink)
	for _, h := range []struct {
		name   string
		handle func(*Packet)
	}{
		{"Host.Send", host.Send},
		{"Host.HandlePacket", host.HandlePacket},
		{"Link.HandlePacket", link.HandlePacket},
		{"Switch.HandlePacket", sw.HandlePacket},
	} {
		p := pool.Get()
		p.Dst = 1
		pool.Free(p)
		mustPanic(t, h.name+" received a freed packet", func() { h.handle(p) })
	}
}

// TestDropsAreFreed checks the owners of dropped packets: the link frees a
// packet its queue refuses, the switch one with no route, and the host one
// for a flow it does not serve.
func TestDropsAreFreed(t *testing.T) {
	e := sim.NewEngine()
	pool := NewPacketPool()
	sink := HandlerFunc(func(*Packet) {})
	link := NewLink(e, "l", 1e9, sim.Microsecond, NewDropTail(1500, 0), sink)
	link.BindPool(pool)
	sw := NewSwitch(e, "s", 0)
	sw.BindPool(pool)
	host := NewHost(1, "h")
	host.BindPool(pool)

	first, queued, refused := pool.Get(), pool.Get(), pool.Get()
	first.WireSize, queued.WireSize, refused.WireSize = 1500, 1500, 1500
	link.HandlePacket(first)   // starts serializing; the queue is empty again
	link.HandlePacket(queued)  // fills the 1500-byte queue
	link.HandlePacket(refused) // no room: dropped
	if !refused.freed {
		t.Fatal("link did not free the packet its queue refused")
	}
	noRoute := pool.Get()
	noRoute.Dst = 9
	sw.HandlePacket(noRoute)
	if !noRoute.freed || sw.DroppedNoRoute != 1 {
		t.Fatal("switch did not free its no-route drop")
	}
	unknown := pool.Get()
	host.HandlePacket(unknown)
	if !unknown.freed {
		t.Fatal("host did not free a packet for an unknown flow")
	}
	if live := pool.Stats().Live; live != 2 {
		t.Fatalf("live = %d, want the 2 packets still on the link", live)
	}
}

func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one mentioning %q", want)
		}
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Fatalf("panic %v, want one mentioning %q", r, want)
		}
	}()
	fn()
}
