package tcp

import (
	"testing"

	"greenenvy/internal/cca"
	"greenenvy/internal/netsim"
	"greenenvy/internal/sim"
)

// The pins below hold the two SACK paths of the endpoints to zero
// allocations per ACK once a pool is warm: the ACK packet comes from the
// host's pool, its SACK blocks live inline, and the sender's rate sample is
// a value copy.

// TestReceiverSACKAckAllocFree pins Receiver.sendAck with out-of-order data
// buffered, so every ACK carries SACK blocks.
func TestReceiverSACKAckAllocFree(t *testing.T) {
	e := sim.NewEngine()
	pool := netsim.NewPacketPool()
	host := netsim.NewHost(1, "rx")
	host.BindPool(pool)
	blocks := 0
	host.SetEgress(netsim.HandlerFunc(func(p *netsim.Packet) {
		blocks += p.NSACK
		pool.Free(p)
	}))
	cfg := DefaultConfig()
	cfg.RxPathCost = -1
	r := NewReceiver(e, host, 1, 0, cfg, false, nil)
	// In-order data to 1000, then three ranges above the hole.
	for _, seq := range []uint64{0, 2000, 4000, 6000} {
		p := pool.Get()
		*p = netsim.Packet{Flow: 1, Seq: seq, DataLen: 1000, WireSize: 1000 + HeaderBytes}
		r.handleData(p)
	}
	blocks = 0
	if got := testing.AllocsPerRun(200, func() { r.sendAck(0) }); got != 0 {
		t.Fatalf("SACK-carrying ACK allocates %.1f objects, want 0", got)
	}
	if blocks != 3*201 {
		t.Fatalf("ACKs carried %d SACK blocks, want 3 per ACK", blocks)
	}
}

// TestSenderSACKAckAllocFree pins Sender.handleAck for ACKs that advance the
// cumulative point and carry a SACK block, on a constant-window sender whose
// network drops every segment it sends.
func TestSenderSACKAckAllocFree(t *testing.T) {
	e := sim.NewEngine()
	pool := netsim.NewPacketPool()
	host := netsim.NewHost(0, "tx")
	host.BindPool(pool)
	host.SetEgress(netsim.HandlerFunc(pool.Free))
	s := NewSender(e, host, 1, 9, 1<<40, cca.MustNew("baseline"), plainCfg(), nil)
	s.Start()
	e.RunUntil(sim.Microsecond)
	cum := uint64(0)
	ack := func() {
		cum += 1000
		p := pool.Get()
		p.Flow, p.Flags, p.Ack = 1, netsim.FlagACK, cum
		p.AddSACK(netsim.SACKBlock{Start: cum + 2000, End: cum + 3000})
		host.HandlePacket(p)
	}
	for i := 0; i < 100; i++ {
		ack() // settle the window and the pool
	}
	if got := testing.AllocsPerRun(200, ack); got != 0 {
		t.Fatalf("SACK-carrying ACK allocates %.1f objects in the sender, want 0", got)
	}
	if s.sndUna != cum {
		t.Fatalf("sndUna = %d, want %d: the ACKs were not processed", s.sndUna, cum)
	}
}
