package testbed

import (
	"fmt"
	"testing"

	"greenenvy/internal/iperf"
	"greenenvy/internal/netsim"
	"greenenvy/internal/sim"
	"greenenvy/internal/tcp"
)

// TestPacketPoolConservation runs transfers through every packet owner —
// queue drops, receive-ring drops, CoDel's dequeue-time drops, INT
// telemetry, and sharded conduit hand-offs — until the event queues drain, then checks every pool:
// each packet obtained or adopted was freed or handed off exactly once
// (Live == 0), and recycling actually happened (Reused > 0).
func TestPacketPoolConservation(t *testing.T) {
	dumbbell := func(t *testing.T, tb *Testbed, flows int, cca string) (RunResult, []*netsim.PacketPool, []*sim.Engine) {
		t.Helper()
		for i := 0; i < flows; i++ {
			if _, err := tb.AddFlow(i, iperf.Spec{Bytes: gbit / 8, CCA: cca, Config: tcp.Config{MTU: 1500}}); err != nil {
				t.Fatal(err)
			}
		}
		res, err := tb.Run(30 * sim.Second)
		if err != nil {
			t.Fatal(err)
		}
		return res, []*netsim.PacketPool{tb.Net.Pool}, []*sim.Engine{tb.Engine}
	}

	t.Run("droptail-overflow", func(t *testing.T) {
		res, pools, engines := dumbbell(t, New(Options{Seed: 1, Senders: 2, BufferBytes: 64 << 10}), 2, "cubic")
		if res.BottleneckStats.DroppedPackets == 0 {
			t.Fatal("no bottleneck drops: the lossy path went unexercised")
		}
		assertConserved(t, pools, engines)
	})

	t.Run("rx-ring-overflow", func(t *testing.T) {
		// The constant-window baseline at MTU 1500 outruns the modeled
		// receive path, so the receiver drops (and frees) at its ring.
		tb := New(Options{Seed: 1})
		c, err := tb.AddFlow(0, iperf.Spec{Bytes: gbit / 8, CCA: "baseline", Config: tcp.Config{MTU: 1500}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tb.Run(30 * sim.Second); err != nil {
			t.Fatal(err)
		}
		if c.Receiver().RxDropped == 0 {
			t.Fatal("no receive-ring drops: the receiver's overflow path went unexercised")
		}
		assertConserved(t, []*netsim.PacketPool{tb.Net.Pool}, []*sim.Engine{tb.Engine})
	})

	t.Run("codel", func(t *testing.T) {
		dcfg := netsim.DefaultDumbbell(2)
		dcfg.BottleneckQueue = netsim.NewCoDel(0, 0, 0) // unbounded: every drop is the control law's, inside Dequeue
		res, pools, engines := dumbbell(t, NewDumbbell(Options{Seed: 1, Senders: 2}, dcfg), 2, "cubic")
		if res.BottleneckStats.DroppedPackets == 0 {
			t.Fatal("CoDel dropped nothing: the dequeue-time free went unexercised")
		}
		assertConserved(t, pools, engines)
	})

	t.Run("hpcc-int", func(t *testing.T) {
		_, pools, engines := dumbbell(t, New(Options{Seed: 1, Senders: 2}), 2, "hpcc")
		assertConserved(t, pools, engines)
	})

	for _, workers := range []int{2, 4} {
		workers := workers
		t.Run(fmt.Sprintf("sharded-incast/workers=%d", workers), func(t *testing.T) {
			tb := NewFatTree(Options{Seed: 7, Shards: workers}, netsim.DefaultFatTree(4))
			// Six senders in pods 1–3 converge on host 0 in pod 0: data
			// crosses the pod/core cut one way, ACKs the other.
			for _, src := range []netsim.NodeID{4, 5, 8, 9, 12, 13} {
				if _, err := tb.AddFlowBetween(src, 0, iperf.Spec{Bytes: gbit / 16, CCA: "cubic"}); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := tb.Run(30 * sim.Second); err != nil {
				t.Fatal(err)
			}
			engines := make([]*sim.Engine, tb.group.Shards())
			for i := range engines {
				engines[i] = tb.group.Engine(i)
			}
			assertConserved(t, tb.Fat.Pools, engines)
		})
	}
}

// assertConserved checks, once every engine is idle, that no pool still
// owns a packet and that the pools recycled at least one.
func assertConserved(t *testing.T, pools []*netsim.PacketPool, engines []*sim.Engine) {
	t.Helper()
	for i, e := range engines {
		if n := e.Pending(); n != 0 {
			t.Fatalf("engine %d still has %d pending events; the run did not drain", i, n)
		}
	}
	var reused uint64
	for i, p := range pools {
		st := p.Stats()
		if st.Live != 0 {
			t.Errorf("pool %d: %d packets live after the run drained (stats %+v)", i, st.Live, st)
		}
		reused += st.Reused
	}
	if reused == 0 {
		t.Error("no packet was ever reused")
	}
}
