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

// The fanin-sweep preset is the fat-tree incast experiment in spec form:
// synchronized cross-rack senders converging on host 0 of a k-ary fat-tree,
// fair (DRR on the receiver's edge downlink) vs serial (chained starts),
// swept over fan-in widths at constant aggregate volume. The bottleneck is
// the receiver's edge downlink, but traffic converges through ECMP'd
// aggregation and core tiers. The registered fattree-incast experiment is
// this preset's builtin spec (see FatTreeIncast).

// FanInPoint is one fan-in width.
type FanInPoint struct {
	Senders int
	// K is the tree arity used for this width (smallest fitting fabric).
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
		const recv = netsim.NodeID(0)
		for _, n := range widths {
			n := n
			per := totalBytes / uint64(n)
			if per == 0 {
				return nil, errf("scale too small for %d-way incast", n)
			}
			k := netsim.FatTreeArityFor(n)
			senders := netsim.IncastHosts(k, n)
			base := fatTreeConfig(spec.Topology, k)
			hostBps := base.HostBps

			run := func(serial bool) (float64, float64, error) {
				id := fmt.Sprintf("%s/n=%d/k=%d/ecmp=%d/serial=%t/per=%d/sh=%d", prefix, n, k, o.Seed, serial, per, o.ShardTag())
				aggs, err := registry.RunCell(o, id, func(seed uint64) (*testbed.Testbed, error) {
					cfg := base
					cfg.ECMPSeed = o.Seed
					if !serial {
						cfg.NewQueue = func(port netsim.FatTreePort) netsim.Queue {
							if port.Tier == netsim.TierHostDown && port.Host == recv {
								return netsim.NewDRR(cfg.BufferBytes, cfg.MarkBytes)
							}
							return nil
						}
					}
					watch := recv
					plan := testbed.Plan{FatTree: &cfg, WatchHost: &watch}
					for i, src := range senders {
						plan.Flows = append(plan.Flows, testbed.PlanFlow{
							Src: src, Dst: recv,
							Spec:      iperf.Spec{Bytes: per, CCA: ccaName},
							Weight:    1 / float64(n),
							SetWeight: !serial,
							After:     i - 1,
							Chained:   serial && i > 0,
						})
					}
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

			// Analytic prediction: n hosts sharing the receiver downlink.
			flows := make([]core.Flow, n)
			for i := range flows {
				flows[i] = core.Flow{Bytes: float64(per)}
			}
			fairS, err := core.FairShare(flows, float64(hostBps))
			if err != nil {
				return nil, err
			}
			serialS, err := core.FullSpeedThenIdle(flows, float64(hostBps))
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

// Table renders the fat-tree incast sweep.
func (r FanInResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fat-tree incast — fair vs serial energy, %.1f Gbit aggregate, cross-rack fan-in\n", r.TotalGbit)
	fmt.Fprintf(&b, "%-8s %4s %12s %12s %10s %12s\n", "senders", "k", "fair (J)", "serial (J)", "savings", "analytic")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-8d %4d %12.1f %12.1f %9.2f%% %11.2f%%\n", p.Senders, p.K, p.FairJ, p.SerialJ, p.SavingsPct, p.AnalyticPct)
	}
	b.WriteString("(Theorem 1 on a fabric: the receiver's edge downlink is the shared resource;\n")
	b.WriteString(" ECMP spreads the converging flows across aggregation and core tiers)\n")
	return b.String()
}

// SVG renders the fat-tree incast sweep.
func (r FanInResult) SVG() (string, error) {
	measured := plot.Series{Name: "measured"}
	analytic := plot.Series{Name: "analytic"}
	for _, p := range r.Points {
		measured.X = append(measured.X, float64(p.Senders))
		measured.Y = append(measured.Y, p.SavingsPct)
		analytic.X = append(analytic.X, float64(p.Senders))
		analytic.Y = append(analytic.Y, p.AnalyticPct)
	}
	return plot.Chart{
		Title:  "Fat-tree incast — serial-schedule savings vs cross-rack fan-in",
		XLabel: "synchronized senders (spread across racks)",
		YLabel: "energy savings (%)",
		Kind:   "line",
		Series: []plot.Series{measured, analytic},
	}.SVG()
}
