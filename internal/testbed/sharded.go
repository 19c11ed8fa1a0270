package testbed

import (
	"fmt"

	"greenenvy/internal/energy"
	"greenenvy/internal/iperf"
	"greenenvy/internal/sim"
)

// This file is Run's counterpart for the sharded fat-tree (Options.Shards >
// 0): the same measurement bracket (bracket.go) — begin every host's RAPL
// counter, start the flows, sample energy every SyncEvery, close at the
// last completion instant — arranged so that no step reads state owned by
// another partition while the run is in flight.
//
// Three things change shape:
//
//   - Sampling is per shard. Each partition engine runs its own sampler
//     over the meters it owns, and the sampler retires itself the moment
//     its shard is quiet (every local sender done, every local receiver in
//     possession of its full transfer). Quiet hosts draw constant idle
//     power, which integrates exactly over any interval, so stopping early
//     loses nothing — and it guarantees every meter's last sync point lies
//     at or before the global completion instant, where the final
//     measurement happens.
//
//   - Chained starts (StartAfter) cross the cut through control conduits.
//     A predecessor completing on shard p hands the successor's start
//     closure to conduit p→q, which delivers it under the same lookahead
//     discipline as any packet; the successor pays one link delay of extra
//     latency relative to the monolithic schedule, identically for every
//     worker count.
//
//   - The window closes on the main goroutine after the group quiesces.
//     The completion instant is the latest sender CompletedAt, read off
//     the clients rather than observed live; closeWindow integrates every
//     meter exactly to it, drawing noise in the same order as the
//     monolithic path.
func (tb *Testbed) runSharded(deadline sim.Duration) (RunResult, error) {
	tb.beginWindow()

	// Route cross-shard chained starts through the control conduits.
	idxOf := make(map[*iperf.Client]int, len(tb.clients))
	for i, c := range tb.clients {
		idxOf[c] = i
	}
	for i, c := range tb.clients {
		prev := c.ChainedAfter()
		if prev == nil {
			continue
		}
		ps, ok := 0, false
		if pi, found := idxOf[prev]; found {
			ps, ok = tb.clientSrcShard[pi], true
		}
		if !ok {
			return RunResult{}, fmt.Errorf("testbed: flow %d chained after a client not added to this testbed", i)
		}
		if cs := tb.clientSrcShard[i]; ps != cs {
			relay := tb.ctrl[ps][cs]
			c.SetStartRelay(func(fire func()) { relay.SendAfterDelay(fire) })
		}
	}
	for _, c := range tb.clients {
		c.Start()
	}

	// One self-retiring sampler per shard that owns meters, stopping when
	// its shard is quiet.
	P := tb.group.Shards()
	meters := make([][]*energy.Meter, P)
	for i, s := range tb.meterShard {
		meters[s] = append(meters[s], tb.Meters[i])
	}
	senders := make([][]*iperf.Client, P)
	receivers := make([][]*iperf.Client, P)
	for i, c := range tb.clients {
		senders[tb.clientSrcShard[i]] = append(senders[tb.clientSrcShard[i]], c)
		receivers[tb.clientDstShard[i]] = append(receivers[tb.clientDstShard[i]], c)
	}
	for s := 0; s < P; s++ {
		if len(meters[s]) == 0 {
			continue
		}
		s := s
		quiet := func() bool {
			for _, c := range senders[s] {
				if !c.Done() {
					return false
				}
			}
			for _, c := range receivers[s] {
				if c.Receiver().TotalReceived < c.TransferBytes() {
					return false
				}
			}
			return true
		}
		tb.sampleUntil(tb.group.Engine(s), meters[s], quiet, deadline)
	}

	tb.group.Run(sim.Time(deadline), tb.opts.Shards)

	if !tb.allDone() {
		return RunResult{}, fmt.Errorf("testbed: flows incomplete at deadline %v", deadline)
	}

	// The measurement window closes at the last flow completion, exactly
	// as the paper's scripts bracket each iperf3 run.
	var done sim.Time
	for _, c := range tb.clients {
		if t := c.Sender().CompletedAt; t > done {
			done = t
		}
	}
	senderJ := make([]float64, len(tb.senderIdx))
	totalSenderJ, receiverJ := tb.closeWindow(done, senderJ)
	return tb.runResult(done, senderJ, totalSenderJ, receiverJ, tb.group.Fired()), nil
}
