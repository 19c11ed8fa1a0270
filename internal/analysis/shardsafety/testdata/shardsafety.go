// Package shardsafety_testdata models the sharded engine's vocabulary with
// stand-in types (the analyzer matches by type and function name, so the
// contract is testable without importing the real engine).
package shardsafety_testdata

// --- stand-in engine vocabulary ---------------------------------------

type Time int64

type Engine struct{ now Time }

func (e *Engine) Now() Time               { return e.now }
func (e *Engine) Run()                    {}
func (e *Engine) RunUntil(t Time)         {}
func (e *Engine) RunBelow(t Time) Time    { return t }
func (e *Engine) After(d Time, fn func()) {}

type Packet struct{ Seq int }

type Conduit struct {
	eng   *Engine
	delay Time
	buf   []any
}

func (c *Conduit) Send(at Time, item any) { c.buf = append(c.buf, item) }
func (c *Conduit) SendAfterDelay(item any) {
	c.Send(c.eng.Now()+c.delay, item) // anchored at the source clock: ok
}

// NewConduit is the stand-in cross-shard channel constructor.
func NewConduit(g *ShardGroup, src, dst int, delay Time, fn func(any)) *Conduit {
	return &Conduit{delay: delay}
}

type Link struct {
	Delay  Time
	remote *Conduit
}

func (l *Link) SetRemote(c *Conduit) { l.remote = c }

type Shard struct{ eng *Engine }

type ShardGroup struct{ shards []*Shard }

func (g *ShardGroup) Engine(i int) *Engine { return g.shards[i].eng }

// Run owns the worker pool: goroutines are legitimate here.
func (g *ShardGroup) Run(deadline Time, workers int) {
	for w := 0; w < workers; w++ {
		go g.work() // ok: Run owns worker lifecycle
	}
}

func (g *ShardGroup) work() {
	for _, s := range g.shards {
		s.eng.RunBelow(10) // ok: bounded batch primitive
	}
}

// --- rule 4: LBTS escapes in round code --------------------------------

func (g *ShardGroup) badRound(s *Shard) {
	go g.work()       // want `round code \(badRound\): spawning a goroutine`
	s.eng.Run()       // want `round code \(badRound\): Engine\.Run dispatches events past the LBTS floor`
	s.eng.RunUntil(5) // want `round code \(badRound\): Engine\.RunUntil dispatches events past the LBTS floor`
}

func (c *Conduit) badDrain(e *Engine) {
	defer func() {
		go e.Run() // want `round code \(badDrain\): spawning a goroutine` `round code \(badDrain\): Engine\.Run dispatches`
	}()
}

// portal stands in for the per-shard-pair mailbox: its drain runs inside
// a round, so it is round code too.
type portal struct{ dirty []*Conduit }

func (p *portal) drain(e *Engine) {
	go e.RunBelow(5) // want `round code \(drain\): spawning a goroutine`
}

// freeFunc is not round code: the same constructs are fine at top level.
func freeFunc(e *Engine) {
	go e.Run()
	e.RunUntil(5)
}

// --- rules 1 and 2: partition-boundary builders ------------------------

// bindAcross is the reviewed partition cut.
//
//greenvet:shardboundary
func bindAcross(g *ShardGroup, lnk *Link, src, dst int) {
	lnk.SetRemote(NewConduit(g, src, dst, lnk.Delay, func(any) {})) // ok: inside a boundary builder
}

func sneakyRewire(g *ShardGroup, lnk *Link) {
	c := NewConduit(g, 0, 1, lnk.Delay, func(any) {}) // want `NewConduit outside a //greenvet:shardboundary function`
	lnk.SetRemote(c)                                  // want `Link\.SetRemote outside a //greenvet:shardboundary function`
}

// --- rule 3: Send due times anchored at the source clock ---------------

func sendShapes(c *Conduit, e *Engine, when Time) {
	c.Send(e.Now()+c.delay, 1) // ok: anchored
	c.Send(c.delay+e.Now(), 2) // ok: either operand order
	c.SendAfterDelay(3)        // ok: the helper anchors internally
	c.Send(when, 4)            // want `Conduit\.Send due time must be anchored at the source shard's clock`
	c.Send(42, 5)              // want `Conduit\.Send due time must be anchored at the source shard's clock`
	c.Send(e.Now()*2, 6)       // want `Conduit\.Send due time must be anchored at the source shard's clock`
}

// --- rule 5: shard-scoped closures ------------------------------------

type Meter struct{ j float64 }

func (m *Meter) Sync() {}

type Client struct{ done bool }

func (c *Client) Done() bool { return c.done }

type ThroughputMonitor struct{ samples int }

func (m *ThroughputMonitor) Observe(flow, n int) { m.samples++ }

type Testbed struct {
	Meters  []*Meter
	clients []*Client
	Monitor *ThroughputMonitor
	group   *ShardGroup
}

// runSharded models the per-shard sampler: closures built after resolving
// a shard's engine run as that shard's event callbacks.
func (tb *Testbed) runSharded(deadline Time) {
	meterIdx := [][]int{{0}, {1}}
	for s := 0; s < 2; s++ {
		s := s
		eng := tb.group.Engine(s)
		sample := func() {
			for _, i := range meterIdx[s] { // ok: per-shard index set
				tb.Meters[i].Sync()
			}
		}
		eng.After(10, sample)
	}
	// Collection after quiesce happens at top level, which is fine:
	for _, c := range tb.clients {
		_ = c.Done()
	}
	tb.Monitor.Observe(0, 1)
}

// badSampler writes every shard's meters — a direct cross-shard touch —
// and samples the fabric-wide monitor from one shard's callback.
func (tb *Testbed) badSampler() {
	eng := tb.group.Engine(0)
	eng.After(10, func() {
		for _, m := range tb.Meters { // want `shard-scoped closure \(badSampler\): ranging over testbed-global Meters`
			m.Sync()
		}
		tb.Monitor.Observe(0, 1) // want `shard-scoped closure \(badSampler\): the ThroughputMonitor samples flows fabric-wide`
	})
}

// localMonitor exercises the method-selector arm: a monitor reached
// through a local still cannot be touched from a shard's callback.
func (tb *Testbed) localMonitor(m *ThroughputMonitor) {
	eng := tb.group.Engine(1)
	eng.After(10, func() {
		m.Observe(1, 2) // want `shard-scoped closure \(localMonitor\): the ThroughputMonitor samples flows fabric-wide`
	})
}

// notShardScoped never resolves a per-shard engine, so its closures are
// ordinary monolithic callbacks.
func (tb *Testbed) notShardScoped(e *Engine) {
	e.After(10, func() {
		for _, m := range tb.Meters {
			m.Sync()
		}
		tb.Monitor.Observe(0, 1)
	})
}

// allowedEscape shows the reviewed-exception path.
func (tb *Testbed) allowedEscape() {
	eng := tb.group.Engine(0)
	eng.After(10, func() {
		//greenvet:allow shardsafety collection runs post-quiesce in this fixture
		tb.Monitor.Observe(0, 1)
	})
}
