package netsim

import "fmt"

// Packet ownership. Every packet has exactly one owner at a time and is
// freed exactly once, by its final consumer:
//
//   - a data segment by the receiving transport (tcp.Receiver), on every
//     path including drops at its receive ring;
//   - an ACK by the sending transport (tcp.Sender);
//   - a packet a queue refuses by the Link that offered it, and a packet
//     CoDel/FQ-CoDel drop inside Dequeue by the discipline itself;
//   - a packet with no route by the Switch, and one for a flow the host no
//     longer serves by the Host.
//
// Freed packets go back to the PacketPool of the engine that freed them.
// A packet crossing a sharded conduit changes owner: the sending shard's
// pool hands it off and the receiving shard's pool adopts it, so it is
// freed into the destination shard's pool and no pool is ever touched by
// two goroutines. Components not bound to a pool (hand-wired test
// topologies) allocate fresh packets and leave freed ones to the GC; the
// use-after-free guard applies to them all the same.

// PacketPool is one engine's packet free list plus the deterministic
// ownership counters behind the conservation checks. It is not safe for
// concurrent use; each engine (each shard) owns its own.
type PacketPool struct {
	free  []*Packet
	stats PoolStats
	// peak is the high-water mark of stats.Live. The free list never holds
	// more than peak−Live packets: a pool on a balanced engine never
	// reaches that bound (everything it allocated is either live or free),
	// but a sharded pod that receives data and sends only ACKs frees more
	// packets than it allocates, and the bound leaves that surplus to the
	// GC instead of hoarding it for the whole run.
	peak int64
}

// PoolStats are a pool's cumulative counters. They are functions of the
// event stream alone, so tests can assert exact values.
type PoolStats struct {
	// Allocated counts packets created fresh because the free list was
	// empty.
	Allocated uint64
	// Reused counts packets served from the free list.
	Reused uint64
	// Live is the number of packets this pool's engine currently owns:
	// obtained or adopted, not yet freed or handed off. It returns to 0
	// once the engine's event queue drains.
	Live int64
}

// NewPacketPool returns an empty pool. Topology builders create one per
// engine and bind it to every host, link, switch and queue on that engine.
func NewPacketPool() *PacketPool { return &PacketPool{} }

// Stats returns the pool's counters.
func (pp *PacketPool) Stats() PoolStats { return pp.stats }

// Get returns a zeroed packet owned by the caller. A nil pool allocates.
//
//greenvet:hotpath
func (pp *PacketPool) Get() *Packet {
	if pp == nil {
		return new(Packet) //greenvet:allow hotpathalloc components outside a topology builder have no pool and leave packets to the GC
	}
	pp.own()
	if n := len(pp.free); n > 0 {
		p := pp.free[n-1]
		pp.free[n-1] = nil
		pp.free = pp.free[:n-1]
		*p = Packet{}
		pp.stats.Reused++
		return p
	}
	pp.stats.Allocated++
	return new(Packet) //greenvet:allow hotpathalloc the free list runs dry only while the engine's live packet count sets a new peak
}

// Free ends p's current life: the caller must be p's owner and must not
// touch p afterwards. Freeing twice panics. The telemetry slice is dropped,
// never truncated, since a CCA may still hold it (see Packet.INT).
//
//greenvet:hotpath
func (pp *PacketPool) Free(p *Packet) {
	if p.freed {
		doubleFree(p)
	}
	p.freed = true
	p.INT = nil
	if pp == nil {
		return
	}
	pp.stats.Live--
	if pp.stats.Live+int64(len(pp.free)) < pp.peak {
		pp.free = append(pp.free, p) //greenvet:allow hotpathalloc the free list is bounded by the engine's peak live packet count
	}
}

// doubleFree is Free's cold path.
func doubleFree(p *Packet) {
	panic(fmt.Sprintf("netsim: packet freed twice (%v)", p))
}

// handOff records that a live packet left this pool's engine over a
// conduit; the destination's pool adopts it.
func (pp *PacketPool) handOff() {
	if pp != nil {
		pp.stats.Live--
	}
}

// adopt records that a packet arrived over a conduit and is now owned by
// this pool's engine.
func (pp *PacketPool) adopt() {
	if pp != nil {
		pp.own()
	}
}

// own counts one more packet owned by this pool's engine.
func (pp *PacketPool) own() {
	pp.stats.Live++
	if pp.stats.Live > pp.peak {
		pp.peak = pp.stats.Live
	}
}

// PoolBinder is implemented by every component that frees packets — hosts,
// links, switches, and the queue disciplines that drop inside Dequeue.
// Topology builders bind their engine's pool through it; Link.BindPool
// forwards the binding to its queue, as NewLink forwards the engine to an
// EngineBinder.
type PoolBinder interface {
	BindPool(pool *PacketPool)
}
