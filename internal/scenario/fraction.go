package scenario

import (
	"fmt"
	"strings"

	"greenenvy/internal/core"
	"greenenvy/internal/energy"
	"greenenvy/internal/iperf"
	"greenenvy/internal/plot"
	"greenenvy/internal/registry"
	"greenenvy/internal/testbed"
)

// The fraction-sweep preset is the paper's Figure 1 experiment in spec
// form: two competing flows on the dumbbell, sweeping the bandwidth
// fraction given to flow 1 via weighted fair queueing (fraction 1.0
// switches to the serial "full speed, then idle" schedule) and measuring
// total sender energy. The registered fig1 experiment is this preset's
// builtin spec (see Fig1).

// FractionPoint is one x-position of the sweep.
type FractionPoint struct {
	// Fraction of the bottleneck allocated to flow 1 while both flows
	// are active (0.5 = TCP fair share, 1.0 = full speed then idle).
	Fraction float64
	// MeanEnergyJ / StdEnergyJ summarize total sender energy over the
	// repetitions.
	MeanEnergyJ float64
	StdEnergyJ  float64
	// SavingsPct is energy saving over the fair point, in percent.
	SavingsPct float64
	// AnalyticSavingsPct is the closed-form prediction from the power
	// curve (the WeightedShare schedule energy).
	AnalyticSavingsPct float64
	// JainIndex is Jain's fairness index of the (f, 1−f) bandwidth
	// allocation while both flows are active: 1 at the fair split, 0.5
	// at full monopoly.
	JainIndex float64
}

// FractionResult is the fraction-sweep outcome: for fig1, the paper's
// "Increasing throughput imbalance for two competing TCP flows can reduce
// energy usage."
type FractionResult struct {
	Points        []FractionPoint
	FairEnergyJ   float64
	MaxSavingsPct float64
	// FlowGbit is the per-flow transfer size used (GbitPerFlow × Scale).
	FlowGbit float64
}

func runFractionSweep(spec Spec, prefix string) func(registry.Options) (registry.Result, error) {
	return func(o registry.Options) (registry.Result, error) {
		o, err := o.WithDefaults()
		if err != nil {
			return nil, err
		}
		bytes := uint64(spec.Sweep.GbitPerFlow * float64(registry.PaperGbit) * o.Scale)
		if bytes == 0 {
			return nil, errf("scale too small")
		}
		fractions := spec.Sweep.Fractions
		res := FractionResult{FlowGbit: float64(bytes) * 8 / 1e9}

		// Analytic predictions from the calibrated curve, at the spec's
		// bottleneck rate.
		rate := float64(spec.Topology.BottleneckBps)
		p := energy.PaperPower()
		flows := []core.Flow{{Bytes: float64(bytes)}, {Bytes: float64(bytes)}}
		analytic := make(map[float64]float64)
		for _, f := range fractions {
			s, err := core.WeightedShare(flows, rate, []float64{f, 1 - f})
			if err != nil {
				return nil, err
			}
			sav, err := core.SavingsOverFair(s, rate, p)
			if err != nil {
				return nil, err
			}
			analytic[f] = sav * 100
		}

		base := dumbbellConfig(spec.Topology)
		ccaName := spec.Sweep.CCA
		deadline := registry.DeadlineFor(2 * bytes)
		for _, f := range fractions {
			f := f
			id := fmt.Sprintf("%s/frac=%.2f/bytes=%d", prefix, f, bytes)
			aggs, err := registry.RunCell(o, id, func(seed uint64) (*testbed.Testbed, error) {
				cfg := base
				if f < 1.0 {
					cfg.BottleneckQueue = buildQueue(QueueSpec{Kind: "drr"}, cfg.BufferBytes, cfg.MarkBytes, cfg.BottleneckBps, seed)
				}
				plan := testbed.Plan{
					Dumbbell: &cfg,
					Flows: []testbed.PlanFlow{
						{Sender: 0, Spec: iperf.Spec{Bytes: bytes, CCA: ccaName}, Weight: f, SetWeight: f < 1.0},
						// The paper's "full speed, then idle": at fraction 1.0
						// flow 2 starts when flow 1 completes.
						{Sender: 1, Spec: iperf.Spec{Bytes: bytes, CCA: ccaName}, Weight: 1 - f, SetWeight: f < 1.0, After: 0, Chained: f == 1.0},
					},
				}
				tb, _, err := testbed.Build(testbed.Options{Senders: spec.Topology.Senders, Seed: seed}, plan)
				return tb, err
			}, deadline, registry.SenderJoules)
			if err != nil {
				return nil, fmt.Errorf("fraction %v: %w", f, err)
			}
			jain := 1 / (2 * (f*f + (1-f)*(1-f)))
			energyAgg := aggs[0]
			res.Points = append(res.Points, FractionPoint{
				Fraction:           f,
				MeanEnergyJ:        energyAgg.Mean,
				StdEnergyJ:         energyAgg.Std,
				AnalyticSavingsPct: analytic[f],
				JainIndex:          jain,
			})
			o.Logf("%s: f=%.2f energy=%.1f±%.1f J", spec.Name, f, energyAgg.Mean, energyAgg.Std)
		}

		res.FairEnergyJ = res.Points[0].MeanEnergyJ
		for i := range res.Points {
			res.Points[i].SavingsPct = (res.FairEnergyJ - res.Points[i].MeanEnergyJ) / res.FairEnergyJ * 100
			if res.Points[i].SavingsPct > res.MaxSavingsPct {
				res.MaxSavingsPct = res.Points[i].SavingsPct
			}
		}
		return res, nil
	}
}

// Table renders the Figure 1 rows.
func (r FractionResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1 — energy savings vs bandwidth fraction to flow 1 (%.1f Gbit/flow)\n", r.FlowGbit)
	fmt.Fprintf(&b, "%-10s %14s %12s %14s %8s\n", "fraction", "energy (J)", "savings %", "analytic %", "jain")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-10.2f %8.1f ±%4.1f %12.2f %14.2f %8.3f\n",
			p.Fraction, p.MeanEnergyJ, p.StdEnergyJ, p.SavingsPct, p.AnalyticSavingsPct, p.JainIndex)
	}
	fmt.Fprintf(&b, "max savings: %.1f%%  (paper: ~16%%)\n", r.MaxSavingsPct)
	return b.String()
}

// SVG renders Figure 1: savings vs bandwidth fraction.
func (r FractionResult) SVG() (string, error) {
	measured := plot.Series{Name: "measured"}
	analytic := plot.Series{Name: "analytic"}
	for _, p := range r.Points {
		measured.X = append(measured.X, p.Fraction*100)
		measured.Y = append(measured.Y, p.SavingsPct)
		analytic.X = append(analytic.X, p.Fraction*100)
		analytic.Y = append(analytic.Y, p.AnalyticSavingsPct)
	}
	return plot.Chart{
		Title:  "Figure 1 — energy savings vs bandwidth fraction to flow 1",
		XLabel: "fraction of bandwidth allocated to flow 1 (%)",
		YLabel: "energy savings over fair allocation (%)",
		Kind:   "line",
		Series: []plot.Series{measured, analytic},
	}.SVG()
}
