package scenario

import (
	"fmt"
	"strings"

	"greenenvy/internal/core"
	"greenenvy/internal/energy"
	"greenenvy/internal/iperf"
	"greenenvy/internal/netsim"
	"greenenvy/internal/plot"
	"greenenvy/internal/registry"
	"greenenvy/internal/testbed"
)

// The fanin-sweep preset is the incast experiment in spec form: n
// synchronized senders converging on one receiver, fair (a DRR with weight
// 1/n on the shared link) vs serial (chained starts), swept over fan-in
// widths at constant aggregate volume. On the dumbbell the senders are the
// first n sender hosts and the shared link is the bottleneck. On a fat-tree
// they are cross-rack hosts of the smallest k-ary fabric that fits them,
// converging on host 0: the bottleneck is the receiver's edge downlink, but
// traffic converges through ECMP'd aggregation and core tiers. The
// registered incast and fattree-incast experiments are this preset's
// builtin specs (see Incast and FatTreeIncast).

// FanInPoint is one fan-in width.
type FanInPoint struct {
	Senders int
	// K is the tree arity used for this width (smallest fitting fabric);
	// 0 on the dumbbell.
	K              int
	FairJ          float64
	SerialJ        float64
	SavingsPct     float64
	AnalyticPct    float64
	FairDuration   float64
	SerialDuration float64
}

// FanInResult is the fanin-sweep outcome.
type FanInResult struct {
	Points []FanInPoint
	// TotalGbit is the aggregate data moved per run (constant across
	// fan-in widths so runs are comparable).
	TotalGbit float64
}

func runFanInSweep(spec Spec, prefix string) func(registry.Options) (registry.Result, error) {
	return func(o registry.Options) (registry.Result, error) {
		o, err := o.WithDefaults()
		if err != nil {
			return nil, err
		}
		totalBytes := uint64(spec.Sweep.TotalGbit * float64(registry.PaperGbit) * o.Scale)
		res := FanInResult{TotalGbit: float64(totalBytes) * 8 / 1e9}
		p := energy.PaperPower()
		ccaName := spec.Sweep.CCA

		widths := append([]int(nil), spec.Sweep.Widths...)
		if spec.Sweep.WideWidth > 0 && o.Scale >= 0.25 {
			widths = append(widths, spec.Sweep.WideWidth)
		}
		dumbbell := spec.Topology.Kind == KindDumbbell
		for _, n := range widths {
			n := n
			per := totalBytes / uint64(n)
			if per == 0 {
				return nil, errf("scale too small for %d-way incast", n)
			}
			k, rate := 0, spec.Topology.BottleneckBps
			if !dumbbell {
				k, rate = netsim.FatTreeArityFor(n), spec.Topology.HostBps
			}

			run := func(serial bool) (float64, float64, error) {
				id := fmt.Sprintf("%s/n=%d/serial=%t/per=%d", prefix, n, serial, per)
				if !dumbbell {
					id = fmt.Sprintf("%s/n=%d/k=%d/ecmp=%d/serial=%t/per=%d/sh=%d", prefix, n, k, o.Seed, serial, per, o.ShardTag())
				}
				aggs, err := registry.RunCell(o, id, func(seed uint64) (*testbed.Testbed, error) {
					plan := faninPlan(spec.Topology, n, k, o.Seed, iperf.Spec{Bytes: per, CCA: ccaName}, serial)
					tb, _, err := testbed.Build(testbed.Options{Seed: seed, Shards: o.Shards}, plan)
					return tb, err
				}, registry.DeadlineFor(totalBytes), registry.SenderJoules, registry.RunSeconds, registry.EventsFired)
				if err != nil {
					return 0, 0, err
				}
				o.Logf("%s: n=%d serial=%t %.0f events/run", spec.Name, n, serial, aggs[2].Mean)
				return aggs[0].Mean, aggs[1].Mean, nil
			}
			fairJ, fairD, err := run(false)
			if err != nil {
				return nil, fmt.Errorf("%s n=%d fair: %w", spec.Name, n, err)
			}
			serialJ, serialD, err := run(true)
			if err != nil {
				return nil, fmt.Errorf("%s n=%d serial: %w", spec.Name, n, err)
			}

			// Analytic prediction: n hosts sharing the bottleneck.
			flows := make([]core.Flow, n)
			for i := range flows {
				flows[i] = core.Flow{Bytes: float64(per)}
			}
			fairS, err := core.FairShare(flows, float64(rate))
			if err != nil {
				return nil, err
			}
			serialS, err := core.FullSpeedThenIdle(flows, float64(rate))
			if err != nil {
				return nil, err
			}
			analytic := (fairS.Energy(p) - serialS.Energy(p)) / fairS.Energy(p) * 100

			res.Points = append(res.Points, FanInPoint{
				Senders:        n,
				K:              k,
				FairJ:          fairJ,
				SerialJ:        serialJ,
				SavingsPct:     (fairJ - serialJ) / fairJ * 100,
				AnalyticPct:    analytic,
				FairDuration:   fairD,
				SerialDuration: serialD,
			})
			o.Logf("%s: n=%d k=%d savings %.1f%% (analytic %.1f%%)", spec.Name, n, k, (fairJ-serialJ)/fairJ*100, analytic)
		}
		return res, nil
	}
}

// faninPlan places one width's n flows, each moving spec: on the dumbbell
// from sender i, on a k-ary fat-tree (ECMP-hashed with ecmpSeed) from the
// i-th incast host to host 0. Fair gives every flow weight 1/n on a DRR at
// the shared link; serial chains each start behind the previous flow's
// completion. It builds fresh queues, so each repetition calls it anew.
func faninPlan(t Topology, n, k int, ecmpSeed uint64, spec iperf.Spec, serial bool) testbed.Plan {
	var plan testbed.Plan
	var srcs []netsim.NodeID
	const recv = netsim.NodeID(0)
	if t.Kind == KindDumbbell {
		cfg := dumbbellConfig(t)
		cfg.Senders = n
		if !serial {
			cfg.BottleneckQueue = netsim.NewDRR(cfg.BufferBytes, cfg.MarkBytes)
		}
		plan.Dumbbell = &cfg
	} else {
		cfg := fatTreeConfig(t, k)
		cfg.ECMPSeed = ecmpSeed
		if !serial {
			cfg.NewQueue = func(port netsim.FatTreePort) netsim.Queue {
				if port.Tier == netsim.TierHostDown && port.Host == recv {
					return netsim.NewDRR(cfg.BufferBytes, cfg.MarkBytes)
				}
				return nil
			}
		}
		plan.FatTree = &cfg
		plan.Watch = func(ft *netsim.FatTree) *netsim.Link { return ft.HostDownlink(recv) }
		srcs = netsim.IncastHosts(k, n)
	}
	for i := 0; i < n; i++ {
		f := testbed.PlanFlow{
			Sender:    i,
			Spec:      spec,
			Weight:    1 / float64(n),
			SetWeight: !serial,
			After:     i - 1,
			Chained:   serial && i > 0,
		}
		if srcs != nil {
			f.Src, f.Dst = srcs[i], recv
		}
		plan.Flows = append(plan.Flows, f)
	}
	return plan
}

// onDumbbell reports whether the sweep ran on the dumbbell, which records
// no fat-tree arity.
func (r FanInResult) onDumbbell() bool { return len(r.Points) > 0 && r.Points[0].K == 0 }

// Table renders the incast sweep; the fat-tree layout adds the arity
// column.
func (r FanInResult) Table() string {
	var b strings.Builder
	dumbbell := r.onDumbbell()
	if dumbbell {
		fmt.Fprintf(&b, "Incast (§5) — fair vs serial energy, %.1f Gbit aggregate, N synchronized senders\n", r.TotalGbit)
		fmt.Fprintf(&b, "%-8s", "senders")
	} else {
		fmt.Fprintf(&b, "Fat-tree incast — fair vs serial energy, %.1f Gbit aggregate, cross-rack fan-in\n", r.TotalGbit)
		fmt.Fprintf(&b, "%-8s %4s", "senders", "k")
	}
	fmt.Fprintf(&b, " %12s %12s %10s %12s\n", "fair (J)", "serial (J)", "savings", "analytic")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-8d", p.Senders)
		if !dumbbell {
			fmt.Fprintf(&b, " %4d", p.K)
		}
		fmt.Fprintf(&b, " %12.1f %12.1f %9.2f%% %11.2f%%\n", p.FairJ, p.SerialJ, p.SavingsPct, p.AnalyticPct)
	}
	if dumbbell {
		b.WriteString("(Theorem 1 keeps fair strictly worst at every fan-in; the relative saving\n")
		b.WriteString(" peaks near n=4 because idle power dominates both schedules at high fan-in)\n")
	} else {
		b.WriteString("(Theorem 1 on a fabric: the receiver's edge downlink is the shared resource;\n")
		b.WriteString(" ECMP spreads the converging flows across aggregation and core tiers)\n")
	}
	return b.String()
}

// SVG renders savings against fan-in width.
func (r FanInResult) SVG() (string, error) {
	measured := plot.Series{Name: "measured"}
	analytic := plot.Series{Name: "analytic"}
	for _, p := range r.Points {
		measured.X = append(measured.X, float64(p.Senders))
		measured.Y = append(measured.Y, p.SavingsPct)
		analytic.X = append(analytic.X, float64(p.Senders))
		analytic.Y = append(analytic.Y, p.AnalyticPct)
	}
	title, xlabel := "Fat-tree incast — serial-schedule savings vs cross-rack fan-in", "synchronized senders (spread across racks)"
	if r.onDumbbell() {
		title, xlabel = "Incast — serial-schedule savings vs fan-in", "synchronized senders"
	}
	return plot.Chart{
		Title:  title,
		XLabel: xlabel,
		YLabel: "energy savings (%)",
		Kind:   "line",
		Series: []plot.Series{measured, analytic},
	}.SVG()
}
