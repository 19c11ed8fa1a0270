package sim

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// This file implements conservative-synchronization parallelism in the
// Chandy–Misra–Bryant tradition: a ShardGroup runs one Engine per
// partition, partitions exchange timestamped items over Conduits whose
// fixed minimum delay is the lookahead guarantee, and each shard only
// executes events strictly below its lower-bound timestamp (LBTS) — the
// earliest instant at which a not-yet-seen cross-shard arrival could still
// occur. There are no barriers: shards advance independently in batches,
// and a central fast-forward pass (a null-message economy run by whichever
// worker goes idle last) raises LBTS floors when every shard is blocked on
// its neighbours.
//
// A batch's synchronization cost is per peer shard, not per conduit: each
// shard publishes one monotone floor, and each ordered shard pair shares
// one portal (mailbox) holding the pair's minimum conduit delay. A
// destination's LBTS is min over in-portals of src floor + portal delay.
// Ordering rule: a destination loads every source floor before it checks
// any mailbox, and a source posts each message before it raises its floor.
// So every message due below a floor the destination has seen is visible
// to it, and any later message is due at or above that floor plus its
// conduit's delay — at or above the destination's LBTS.
//
// Determinism contract: for a fixed partition assignment, results are
// byte-identical for any worker count. Each shard's execution order is the
// strict total order (time, band, seq); conduit arrivals carry
// per-conduit sequence numbers assigned in send order (which is itself
// deterministic, since each conduit has a single source shard), so heap
// keys never depend on scheduling. Conservative synchronization guarantees
// an arrival is inserted before the destination clock reaches it; batching
// only changes *when* an insertion happens, never where it sorts.

// shard run states, guarded by ShardGroup.mu.
const (
	shardRunnable = iota
	shardRunning
	shardParked
)

// unreachable is the sentinel distance for shard pairs with no conduit
// path. Far below MaxTime so Floyd–Warshall sums cannot overflow.
const unreachable = MaxTime / 4

// ShardGroup owns a set of partition engines and the scheduler that runs
// them to a common deadline. Create one with NewShardGroup, connect the
// partitions with NewConduit, seed each Engine with initial events, then
// call Run exactly once.
type ShardGroup struct {
	shards   []*Shard
	conduits uint64 // created so far; fixes each one's ordinal

	mu      sync.Mutex
	cond    *sync.Cond
	runq    []*Shard
	running int
	done    bool
	failure *shardPanic
	started bool

	deadline Time
	// dist[u][s] is the minimum cumulative conduit delay over any path from
	// shard u to shard s (unreachable when there is none; dist[s][s] is the
	// shortest cycle through s). Computed once at Run from the conduit
	// graph; the fast-forward pass uses it to bound how soon anything shard
	// u does next could reach shard s.
	dist [][]Time
	// stats.FastForwards is guarded by mu; the rest is summed per shard.
	stats ShardStats
}

type shardPanic struct {
	val   any
	stack []byte
}

// Shard is one partition: an Engine plus its scheduler bookkeeping.
type Shard struct {
	id  int
	eng *Engine

	// base is the published floor: nothing the shard does from now on can
	// reach a peer before base plus the portal's delay. Only the shard's
	// own batches raise it.
	base atomic.Int64

	in, out []*portal

	// Scheduler fields, guarded by g.mu.
	state int
	// gen is bumped on every wake signal; genSeen snapshots it when a batch
	// claims the shard. A parked shard always has gen == genSeen, which is
	// the proof obligation for termination: anything sent to it after its
	// last drain would have bumped gen and requeued it.
	gen, genSeen uint64
	// next is the earliest pending local event after the last batch
	// (MaxTime when the queue is empty).
	next Time
	// lbtsFloor is a scheduler-proven lower bound on all future arrivals,
	// from the fast-forward pass. It can exceed every conduit bound.
	lbtsFloor Time

	stats ShardStats // Messages and Batches; touched only by the running worker
}

// portal is the mailbox of one ordered shard pair, shared by all of the
// pair's conduits.
type portal struct {
	src, dst *Shard
	delay    Duration    // the pair's smallest conduit delay: its lookahead
	sent     bool        // the source's current batch posted here; source-local
	mail     atomic.Bool // dirty is non-empty

	mu           sync.Mutex
	dirty, spare []conduitLink // dirty: conduits with undrained messages, guarded by mu
}

// conduitLink is the type-erased view of a Conduit a portal drains: take
// runs under the portal lock, file outside it and reports the count filed.
type conduitLink interface {
	take()
	file() int
}

// after returns t+d, saturating at MaxTime.
func after(t Time, d Duration) Time {
	if t >= MaxTime-d {
		return MaxTime
	}
	return t + d
}

// drain files every undrained message into the destination engine and
// returns the count. It takes the dirty list under the lock and files it
// outside, so a panicking check never leaves the mailbox locked.
func (p *portal) drain() int {
	p.mu.Lock()
	dirty := p.dirty
	p.dirty = p.spare[:0]
	for _, c := range dirty {
		c.take()
	}
	p.mail.Store(false)
	p.mu.Unlock()

	n := 0
	for _, c := range dirty {
		n += c.file()
	}
	p.spare = dirty[:0]
	return n
}

// NewShardGroup creates n empty, connected-by-nothing partition engines.
func NewShardGroup(n int) *ShardGroup {
	if n < 1 {
		panic(fmt.Sprintf("sim: NewShardGroup with %d shards", n))
	}
	g := &ShardGroup{}
	g.cond = sync.NewCond(&g.mu)
	for i := 0; i < n; i++ {
		g.shards = append(g.shards, &Shard{id: i, eng: NewEngine()})
	}
	return g
}

// Shards reports the number of partitions.
func (g *ShardGroup) Shards() int { return len(g.shards) }

// Engine returns partition i's engine. Seeding it with events is only safe
// before Run or from within its own shard's callbacks.
func (g *ShardGroup) Engine(i int) *Engine { return g.shards[i].eng }

// Fired reports the total number of events executed across all partitions.
// Only meaningful before Run or after it returns.
func (g *ShardGroup) Fired() uint64 {
	var n uint64
	for _, s := range g.shards {
		n += s.eng.Fired()
	}
	return n
}

// Pending reports the total number of live queued events across all
// partitions. Only meaningful before Run or after it returns.
func (g *ShardGroup) Pending() int {
	n := 0
	for _, s := range g.shards {
		n += s.eng.Pending()
	}
	return n
}

// ShardStats counts a Run's synchronization work. Messages (items
// delivered through conduits) is deterministic and may be asserted
// exactly. Batches (drain-execute-publish rounds) and FastForwards (passes
// that woke a shard) depend on worker scheduling: they explain a run's
// cost and must never feed into results or cache keys.
type ShardStats struct{ Messages, Batches, FastForwards uint64 }

// Stats reports the group's counters. Only meaningful after Run returns.
func (g *ShardGroup) Stats() ShardStats {
	st := g.stats
	for _, s := range g.shards {
		st.Messages += s.stats.Messages
		st.Batches += s.stats.Batches
	}
	return st
}

// Run executes all partitions up to and including deadline on up to
// workers OS threads (clamped to [1, shards]) and returns when every
// partition has quiesced: no local event at or below the deadline remains
// anywhere. Results are byte-identical for any workers value. A panic on
// any shard stops the group and is re-raised here. Run may be called once
// per group.
func (g *ShardGroup) Run(deadline Time, workers int) {
	g.mu.Lock()
	if g.started {
		g.mu.Unlock()
		panic("sim: ShardGroup.Run called twice")
	}
	g.started = true
	g.deadline = deadline
	g.computeDist()
	for _, s := range g.shards {
		s.state = shardRunnable
		s.gen, s.genSeen = 0, 0
		s.next = 0
		s.lbtsFloor = 0
		s.base.Store(0)
		g.runq = append(g.runq, s)
	}
	g.mu.Unlock()

	if workers < 1 {
		workers = 1
	}
	if workers > len(g.shards) {
		workers = len(g.shards)
	}
	if workers == 1 {
		g.work()
	} else {
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				g.work()
			}()
		}
		wg.Wait()
	}
	if g.failure != nil {
		panic(fmt.Sprintf("sim: shard worker panicked: %v\n%s", g.failure.val, g.failure.stack))
	}
}

// work is one worker's scheduling loop: claim a runnable shard, run a
// batch, park or requeue it, and when the whole group is idle either
// fast-forward the LBTS floors or declare the run finished.
func (g *ShardGroup) work() {
	g.mu.Lock()
	for {
		if g.done || g.failure != nil {
			g.cond.Broadcast()
			g.mu.Unlock()
			return
		}
		if len(g.runq) == 0 {
			if g.running == 0 {
				if !g.fastForwardLocked() {
					g.done = true
				}
				continue
			}
			g.cond.Wait()
			continue
		}
		s := g.runq[len(g.runq)-1]
		g.runq = g.runq[:len(g.runq)-1]
		s.state = shardRunning
		s.genSeen = s.gen
		floor := s.lbtsFloor
		g.running++
		g.mu.Unlock()

		next, ok := g.runBatch(s, floor)

		g.mu.Lock()
		g.running--
		if !ok {
			continue // runBatch recorded the panic; loop top broadcasts
		}
		s.next = next
		if s.gen != s.genSeen {
			// A peer published to us mid-batch; its messages are safely in
			// the future (at or past our LBTS) but we owe them a drain.
			s.state = shardRunnable
			g.runq = append(g.runq, s)
		} else {
			s.state = shardParked
		}
	}
}

// runBatch drains shard s's inbound portals, executes every local event
// strictly below the resulting LBTS (capped just past the deadline), and
// publishes the shard's fresh floor. It returns the earliest remaining
// local event time. Panics from event callbacks are captured for Run to
// re-raise on the caller's goroutine.
func (g *ShardGroup) runBatch(s *Shard, floor Time) (next Time, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			g.mu.Lock()
			if g.failure == nil {
				g.failure = &shardPanic{val: r, stack: debug.Stack()}
			}
			g.cond.Broadcast()
			g.mu.Unlock()
			next, ok = 0, false
		}
	}()
	s.stats.Batches++

	// Floors first, then mailboxes (see the ordering rule above).
	lbts := MaxTime
	for _, p := range s.in {
		if b := after(Time(p.src.base.Load()), p.delay); b < lbts {
			lbts = b
		}
	}
	for _, p := range s.in {
		if p.mail.Load() {
			s.stats.Messages += uint64(p.drain())
		}
	}
	if floor > lbts {
		lbts = floor
	}
	limit := lbts
	if g.deadline < MaxTime && g.deadline+1 < limit {
		// Events past the deadline never run, so there is no need to wait
		// for bounds covering them; an event *at* the deadline must run,
		// hence the +1 on the strict limit.
		limit = g.deadline + 1
	}
	next = s.eng.RunBelow(limit)

	// Publish the floor, min(next, lbts): the earliest instant we could
	// still execute or newly learn about. The batch's messages are already
	// posted. Floors are monotone; a stale batch cannot lower one.
	base := next
	if lbts < base {
		base = lbts
	}
	pub := Time(s.base.Load())
	advanced := base > pub
	if advanced {
		pub = base
		s.base.Store(int64(pub))
	}
	wake := advanced
	for _, p := range s.out {
		wake = wake || p.sent
	}
	if wake {
		g.mu.Lock()
		for _, p := range s.out {
			if p.sent {
				// Messages owe the destination a drain, whatever its state.
				g.wakeLocked(p.dst)
			} else if advanced && p.dst.state == shardParked && after(pub, p.delay) > p.dst.next {
				// A bare bound advance matters only if it could let a parked
				// shard execute its next event. Waking unconditionally would
				// let two idle shards ratchet each other's bounds one
				// lookahead at a time across any event gap; below-next
				// advances are left for the fast-forward pass instead. (An
				// advance that lands while the destination is mid-batch can
				// leave it parked-but-executable; the fast-forward pass
				// always wakes the globally earliest such shard, so progress
				// never stalls.)
				g.wakeLocked(p.dst)
			}
			p.sent = false
		}
		g.mu.Unlock()
	}
	return next, true
}

// wakeLocked signals shard s that a peer advanced a bound or sent it
// messages. Callers hold g.mu.
func (g *ShardGroup) wakeLocked(s *Shard) {
	s.gen++
	if s.state == shardParked {
		s.state = shardRunnable
		g.runq = append(g.runq, s)
		g.cond.Signal()
	}
}

// fastForwardLocked is the null-message economy: called with every shard
// parked and no worker running, it centrally recomputes each shard's LBTS
// floor as min over peers u of (u.next + dist[u][s]) — no event anywhere
// can cause an arrival at s earlier than that — and wakes the shards whose
// floor now exceeds their next event. It reports whether anything was
// woken; when nothing was, every shard's next event is past the deadline
// and the run is complete. Without this pass, idle topologies would creep
// toward the next event one lookahead at a time through O(gap/lookahead)
// bound publications.
func (g *ShardGroup) fastForwardLocked() bool {
	woke := false
	quiescent := true
	for si, s := range g.shards {
		if s.next > g.deadline {
			continue // nothing left to run; floors are irrelevant
		}
		quiescent = false
		floor := MaxTime
		for ui, u := range g.shards {
			if u.next > g.deadline {
				// Capped or empty shards execute nothing more, so they
				// send nothing more (and u.next may be MaxTime).
				continue
			}
			if d := g.dist[ui][si]; d < unreachable && u.next+d < floor {
				floor = u.next + d
			}
		}
		if floor > s.lbtsFloor {
			s.lbtsFloor = floor
		}
		if floor > s.next {
			g.wakeLocked(s)
			woke = true
		}
	}
	if woke {
		g.stats.FastForwards++
	}
	if !woke && !quiescent {
		// Cannot happen: the globally earliest non-quiescent shard always
		// receives a floor of at least next + lookahead (or MaxTime when
		// nothing can reach it). Guard against a silent livelock anyway.
		panic("sim: shard scheduler stalled with pending events")
	}
	return woke
}

// computeDist runs Floyd–Warshall over the portal graph. Callers hold
// g.mu (Run's setup).
func (g *ShardGroup) computeDist() {
	n := len(g.shards)
	g.dist = make([][]Time, n)
	for i := range g.dist {
		g.dist[i] = make([]Time, n)
		for j := range g.dist[i] {
			g.dist[i][j] = unreachable
		}
	}
	for _, s := range g.shards {
		for _, p := range s.out {
			g.dist[s.id][p.dst.id] = p.delay
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			dik := g.dist[i][k]
			if dik >= unreachable {
				continue
			}
			for j := 0; j < n; j++ {
				if dkj := g.dist[k][j]; dkj < unreachable && dik+dkj < g.dist[i][j] {
					g.dist[i][j] = dik + dkj
				}
			}
		}
	}
}

// Conduit is a one-way, single-source inter-shard channel delivering items
// of type T at explicit future times. The fixed delay is both the minimum
// source-to-destination latency and the lookahead the scheduler leans on:
// Send panics if an item is scheduled below the source's published floor
// plus the delay. Per-conduit due times must be nondecreasing (cross-shard
// links serialize their traffic, so this holds by construction, as with
// DelayLine).
//
// The source side (Send) is called from the source shard's event
// callbacks; the receive side (take/file/fire) runs only on the goroutine
// currently executing the destination shard. The two meet at a double
// buffer guarded by the shard pair's portal.
type Conduit[T any] struct {
	src     *Shard
	p       *portal
	delay   Duration
	deliver func(T)
	// ordinal is the conduit's creation index; together with a local
	// message counter it forms arrival sequence numbers that depend only
	// on construction order and traffic, never on worker scheduling.
	ordinal uint64

	// Source-to-destination handoff, guarded by p.mu.
	buf []conduitMsg[T]

	// Receive side: destination-shard-local, no locking.
	dstEng       *Engine
	inbox, spare []conduitMsg[T]
	ring         []conduitItem[T]
	head, n      int
	msgIdx       uint64
	lastAt       Time
	ev           Event
}

type conduitMsg[T any] struct {
	item T
	at   Time
}

type conduitItem[T any] struct {
	item T
	at   Time
	seq  uint64
}

// NewConduit connects shard src to shard dst with minimum latency delay,
// delivering items through fn on the destination shard. Conduits must be
// created before ShardGroup.Run, and creation order is part of the
// determinism contract (it fixes arrival tie-break order), so build them
// in a fixed topology-derived order. The delay must be positive: a
// zero-lookahead cycle cannot make conservative progress.
func NewConduit[T any](g *ShardGroup, src, dst int, delay Duration, fn func(T)) *Conduit[T] {
	if delay <= 0 {
		panic(fmt.Sprintf("sim: conduit with non-positive delay %d has no lookahead", delay))
	}
	if src == dst {
		panic("sim: conduit connecting a shard to itself")
	}
	if fn == nil {
		panic("sim: NewConduit with nil deliver callback")
	}
	g.mu.Lock()
	if g.started {
		g.mu.Unlock()
		panic("sim: NewConduit after ShardGroup.Run")
	}
	from, to := g.shards[src], g.shards[dst]
	var p *portal
	for _, q := range from.out {
		if q.dst == to {
			p = q
			break
		}
	}
	if p == nil {
		p = &portal{src: from, dst: to, delay: delay}
		from.out = append(from.out, p)
		to.in = append(to.in, p)
	} else if delay < p.delay {
		p.delay = delay
	}
	c := &Conduit[T]{
		src:     from,
		p:       p,
		delay:   delay,
		deliver: fn,
		ordinal: g.conduits,
		dstEng:  to.eng,
	}
	c.ev.eng = c.dstEng
	c.ev.idx = -1
	c.ev.band = bandPortal
	c.ev.pinned = true
	c.ev.fn = c.fire
	g.conduits++
	g.mu.Unlock()
	return c
}

// Delay returns the conduit's lookahead: the minimum source-to-destination
// latency promised at construction. Callers binding a conduit behind a
// physical link can check it against the link's propagation delay.
func (c *Conduit[T]) Delay() Duration { return c.delay }

// Send hands item to the destination shard for delivery at absolute time
// at. Must be called from the source shard's event callbacks (that is what
// makes send order, and thus arrival order, deterministic). at must respect
// the conduit's lookahead promise — at least the source's published floor
// plus this conduit's own delay, which now + delay always is — and
// per-conduit due times must be nondecreasing.
//
//greenvet:hotpath
func (c *Conduit[T]) Send(at Time, item T) {
	if b := after(Time(c.src.base.Load()), c.delay); at < b {
		panic(fmt.Sprintf("sim: conduit send at %v violates published bound %v (lookahead %v)", at, b, c.delay))
	}
	p := c.p
	p.mu.Lock()
	if len(c.buf) == 0 {
		p.dirty = append(p.dirty, c) //greenvet:allow hotpathalloc dirty list is recycled every drain, so growth settles at the pair's conduit count
		p.mail.Store(true)
	}
	c.buf = append(c.buf, conduitMsg[T]{item: item, at: at}) //greenvet:allow hotpathalloc double buffer is recycled every drain, so growth settles at the conduit's peak in-flight count
	p.mu.Unlock()
	p.sent = true
}

// SendAfterDelay delivers item at the source shard's current time plus the
// conduit delay — the earliest instant the lookahead permits.
func (c *Conduit[T]) SendAfterDelay(item T) {
	c.Send(c.src.eng.Now()+c.delay, item)
}

// take swaps the source's buffer for the recycled one under the portal
// lock.
func (c *Conduit[T]) take() {
	c.inbox = c.buf
	c.buf = c.spare[:0]
}

// file moves the taken messages into the destination engine's event queue
// on the destination shard's goroutine, outside the portal lock.
func (c *Conduit[T]) file() int {
	msgs := c.inbox
	c.inbox = nil
	var zero T
	for i := range msgs {
		m := &msgs[i]
		if c.msgIdx > 0 && m.at < c.lastAt {
			panic(fmt.Sprintf("sim: conduit due times went backwards (%v after %v)", m.at, c.lastAt))
		}
		c.lastAt = m.at
		// Arrival rank: conduit ordinal then per-conduit message index.
		// Both are independent of worker count — the k-th message ever
		// sent through this conduit always lands here as index k, because
		// drains empty the buffer in send order.
		seq := c.ordinal<<40 | c.msgIdx
		c.msgIdx++
		c.pushRing(conduitItem[T]{item: m.item, at: m.at, seq: seq})
		m.item = zero // drop the reference before the slice becomes spare
	}
	c.spare = msgs
	if c.ev.idx < 0 && c.n > 0 {
		h := &c.ring[c.head]
		c.dstEng.pushAt(&c.ev, h.at, h.seq)
	}
	return len(msgs)
}

// fire delivers the head arrival and re-arms the portal event for the
// next one, exactly as DelayLine does for local traffic.
//
//greenvet:hotpath
func (c *Conduit[T]) fire() {
	it := c.popRing()
	c.deliver(it.item)
	if c.ev.idx < 0 && c.n > 0 {
		h := &c.ring[c.head]
		c.dstEng.pushAt(&c.ev, h.at, h.seq)
	}
}

func (c *Conduit[T]) pushRing(it conduitItem[T]) {
	if c.n == len(c.ring) {
		c.grow()
	}
	c.ring[(c.head+c.n)&(len(c.ring)-1)] = it
	c.n++
}

func (c *Conduit[T]) popRing() conduitItem[T] {
	it := c.ring[c.head]
	var zero conduitItem[T]
	c.ring[c.head] = zero // drop the item reference for the GC
	c.head = (c.head + 1) & (len(c.ring) - 1)
	c.n--
	return it
}

func (c *Conduit[T]) grow() {
	newCap := 2 * len(c.ring)
	if newCap == 0 {
		newCap = 16
	}
	next := make([]conduitItem[T], newCap)
	for i := 0; i < c.n; i++ {
		next[i] = c.ring[(c.head+i)&(len(c.ring)-1)]
	}
	c.ring = next
	c.head = 0
}
