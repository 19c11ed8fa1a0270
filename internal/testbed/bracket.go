package testbed

import (
	"greenenvy/internal/energy"
	"greenenvy/internal/sim"
)

// This file is the measurement protocol every driver (Run, runSharded,
// RunStream) shares, as the paper's scripts run it around each iperf3
// experiment: read every host's RAPL counter before the flows start
// (beginWindow), integrate host energy every SyncEvery while they run
// (sampleUntil), and read the counters again at the instant the last flow
// completes (closeWindow). The drivers differ only in where that instant
// comes from and in when a sampler may retire.

// beginWindow snapshots every sensor's counter: the start of the
// measurement window.
func (tb *Testbed) beginWindow() {
	for _, s := range tb.Sensors {
		tb.measures = append(tb.measures, s.Begin())
	}
}

// sampleUntil arms a self-retiring sampler on eng that integrates meters
// every SyncEvery until stop reports true or the deadline passes. The stop
// check precedes the sync: once it holds, syncing again could push a
// meter's integration point past the completion instant closeWindow
// integrates to, and a meter cannot integrate backwards.
func (tb *Testbed) sampleUntil(eng *sim.Engine, meters []*energy.Meter, stop func() bool, deadline sim.Duration) {
	var sample func()
	sample = func() {
		if stop() {
			return
		}
		for _, m := range meters {
			m.Sync()
		}
		if eng.Now() < sim.Time(deadline) {
			eng.After(tb.opts.SyncEvery, sample)
		}
	}
	eng.After(tb.opts.SyncEvery, sample)
}

// closeWindow ends every measurement with its meter integrated exactly to
// done, scaled by RAPL measurement noise. It returns the summed sender and
// receiver joules and, when senderJ is non-nil (sized to the sender
// group), stores each sender's joules there. Noise is drawn for senders in
// registration order, then receivers: the draw sequence is part of the
// determinism contract the dumbbell's golden digests depend on.
func (tb *Testbed) closeWindow(done sim.Time, senderJ []float64) (totalSenderJ, receiverJ float64) {
	for k, i := range tb.senderIdx {
		j := tb.measures[i].EndPackageAt(done) * tb.noise()
		if senderJ != nil {
			senderJ[k] = j
		}
		totalSenderJ += j
	}
	for _, i := range tb.recvIdx {
		receiverJ += tb.measures[i].EndPackageAt(done) * tb.noise()
	}
	return totalSenderJ, receiverJ
}

// noise draws one relative RAPL measurement error.
func (tb *Testbed) noise() float64 { return 1 + tb.rng.Normal(0, tb.opts.MeasureNoise) }

// runResult assembles a batch run's outcome once its window closed at
// done: the energy closeWindow read, plus the per-flow and fabric counters
// both batch drivers report.
func (tb *Testbed) runResult(done sim.Time, senderJ []float64, totalSenderJ, receiverJ float64, eventsFired uint64) RunResult {
	res := RunResult{
		SenderEnergyJ:   senderJ,
		ReceiverEnergyJ: receiverJ,
		TotalSenderJ:    totalSenderJ,
		Duration:        done,
		EventsFired:     eventsFired,
	}
	for _, c := range tb.clients {
		res.Reports = append(res.Reports, c.Report())
		res.Retransmits += c.Sender().Retransmits
	}
	if s := res.Duration.Seconds(); s > 0 {
		res.AvgSenderPowerW = res.TotalSenderJ / s
	}
	if tb.watch != nil {
		res.BottleneckStats = tb.watch.Queue().Stats()
	}
	for _, sw := range tb.switches {
		res.NoRouteDrops += sw.DroppedNoRoute
	}
	return res
}
