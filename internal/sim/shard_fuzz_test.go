package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// fuzzModel is a random sharded model drawn from a seed: 2–6 shards, a
// conduit multigraph with several conduits per shard pair and mixed
// delays, tokens that hop across it, and local-only event chains. All
// randomness after construction comes from per-shard generators touched
// only by their own shard's events, so the model is deterministic for any
// worker count.
type fuzzModel struct {
	g      *ShardGroup
	out    [][]*fuzzConduit // by source shard
	rng    []*RNG           // by shard
	traces [][]string
}

type fuzzConduit struct {
	c *Conduit[int]
	// lastDue keeps due times nondecreasing under random send jitter;
	// only the source shard touches it.
	lastDue Time
}

func newFuzzModel(seed uint64, shards, conduits, tokens uint8) *fuzzModel {
	r := NewRNG(seed)
	n := 2 + int(shards)%5
	m := &fuzzModel{g: NewShardGroup(n), out: make([][]*fuzzConduit, n), traces: make([][]string, n)}
	for s := 0; s < n; s++ {
		m.rng = append(m.rng, r.Split(uint64(s)))
	}
	src, dst := 0, 1
	for k := 0; k < 1+int(conduits)%24; k++ {
		if k%3 != 1 { // every third conduit doubles up the previous pair
			src = r.Intn(n)
			dst = (src + 1 + r.Intn(n-1)) % n
		}
		fc := &fuzzConduit{}
		to := dst
		fc.c = NewConduit(m.g, src, to, Duration(1+r.Intn(40))*Microsecond/2, func(tok int) {
			m.arrive(to, k, tok)
		})
		m.out[src] = append(m.out[src], fc)
	}
	for k := 0; k < 1+int(tokens)%16; k++ {
		s, tok := r.Intn(n), k<<8|(1+r.Intn(24))
		m.g.Engine(s).At(r.Jitter(50*Microsecond), func() { m.hop(s, tok) })
	}
	for s := 0; s < n; s++ {
		s, left := s, r.Intn(8)
		m.g.Engine(s).At(r.Jitter(50*Microsecond), func() { m.local(s, left) })
	}
	return m
}

func (m *fuzzModel) record(shard int, what string, args ...any) {
	m.traces[shard] = append(m.traces[shard],
		fmt.Sprintf("%v ", m.g.Engine(shard).Now())+fmt.Sprintf(what, args...))
}

// arrive receives a token and forwards it now or after some local delay.
func (m *fuzzModel) arrive(shard, conduit, tok int) {
	m.record(shard, "rx c%d %x", conduit, tok)
	if r := m.rng[shard]; r.Intn(3) > 0 {
		m.g.Engine(shard).After(1+r.Jitter(5*Microsecond), func() { m.hop(shard, tok) })
		return
	}
	m.hop(shard, tok)
}

// hop sends a token with hops left on a random out-conduit, jittered past
// the conduit's minimum delay.
func (m *fuzzModel) hop(shard, tok int) {
	m.record(shard, "hop %x", tok)
	if tok&0xff == 0 || len(m.out[shard]) == 0 {
		return
	}
	r := m.rng[shard]
	fc := m.out[shard][r.Intn(len(m.out[shard]))]
	at := m.g.Engine(shard).Now() + fc.c.Delay() + r.Jitter(3*Microsecond)
	if at < fc.lastDue {
		at = fc.lastDue
	}
	fc.lastDue = at
	fc.c.Send(at, tok-1)
}

// local is a shard-local event chain that never crosses the cut.
func (m *fuzzModel) local(shard, left int) {
	m.record(shard, "local %d", left)
	if left > 0 {
		m.g.Engine(shard).After(1+m.rng[shard].Jitter(20*Microsecond), func() { m.local(shard, left-1) })
	}
}

// FuzzShardGroupWorkers checks the determinism contract on random models:
// identical per-shard traces, Fired, Stats().Messages and a drained queue
// at 1, 2 and 4 workers. The seed corpus lives in testdata/fuzz.
func FuzzShardGroupWorkers(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, shards, conduits, tokens uint8) {
		var golden *fuzzModel
		for _, workers := range []int{1, 2, 4} {
			m := newFuzzModel(seed, shards, conduits, tokens)
			m.g.Run(Second, workers)
			if got := m.g.Pending(); got != 0 {
				t.Fatalf("workers=%d: %d events pending after quiescent run", workers, got)
			}
			if golden == nil {
				golden = m
				continue
			}
			if !reflect.DeepEqual(m.traces, golden.traces) {
				t.Errorf("workers=%d: traces diverge from single-worker run", workers)
			}
			if got, want := m.g.Fired(), golden.g.Fired(); got != want {
				t.Errorf("workers=%d: fired %d events, single-worker run fired %d", workers, got, want)
			}
			if got, want := m.g.Stats().Messages, golden.g.Stats().Messages; got != want {
				t.Errorf("workers=%d: %d conduit messages, single-worker run had %d", workers, got, want)
			}
		}
	})
}
