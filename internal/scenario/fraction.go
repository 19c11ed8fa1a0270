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
	"greenenvy/internal/sim"
	"greenenvy/internal/testbed"
)

// The fraction-sweep preset is the paper's Figure 1 experiment in spec
// form: two competing flows, sweeping the bandwidth fraction given to flow
// 1 via weighted fair queueing (fraction 1.0 switches to the serial "full
// speed, then idle" schedule) and measuring total sender energy. On the
// dumbbell the flows share its bottleneck. On a k-ary fat-tree they are
// two cross-pod flows whose ECMP paths collide on one core→aggregation
// downlink, and every core downlink gets a DRR (only the contended one
// matters). The registered fig1 and crossrack experiments are this
// preset's builtin specs (see Fig1 and CrossRack).

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
	// K is the fat-tree arity, 0 on the dumbbell.
	K int
	// CoreLink names the shared core→aggregation downlink on a fat-tree.
	CoreLink string
	// Flow1 and Flow2 are the fat-tree (src, dst) host pairs whose ECMP
	// paths collide on CoreLink and share no other link.
	Flow1, Flow2  [2]netsim.NodeID
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
		t := spec.Topology
		fat := t.Kind == KindFatTree
		rate := float64(t.BottleneckBps)
		var fatCfg netsim.FatTreeConfig
		if fat {
			res.K, rate = t.K, float64(t.AggCoreBps)
			fatCfg = fatTreeConfig(t, t.K)
			fatCfg.ECMPSeed = o.Seed
			// Discover the colliding endpoint pair on a throwaway instance;
			// every repetition's tree resolves the same paths by the same
			// hashes.
			probe := netsim.NewFatTree(sim.NewEngine(), fatCfg)
			f1, f2, shared, err := crossRackCollide(probe)
			if err != nil {
				return nil, err
			}
			res.Flow1, res.Flow2, res.CoreLink = f1, f2, shared.Name
		}
		f1, f2 := res.Flow1, res.Flow2

		// Analytic predictions from the calibrated curve, at the rate of
		// the shared link.
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

		ccaName := spec.Sweep.CCA
		deadline := registry.DeadlineFor(2 * bytes)
		for _, f := range fractions {
			f := f
			fair := f < 1.0
			id := fmt.Sprintf("%s/frac=%.2f/bytes=%d", prefix, f, bytes)
			if fat {
				id = fmt.Sprintf("%s/k=%d/ecmp=%d/frac=%.2f/bytes=%d/sh=%d", prefix, t.K, o.Seed, f, bytes, o.ShardTag())
			}
			aggs, err := registry.RunCell(o, id, func(seed uint64) (*testbed.Testbed, error) {
				plan := testbed.Plan{
					Flows: []testbed.PlanFlow{
						{Sender: 0, Src: f1[0], Dst: f1[1], Spec: iperf.Spec{Bytes: bytes, CCA: ccaName}, Weight: f, SetWeight: fair},
						// The paper's "full speed, then idle": at fraction 1.0
						// flow 2 starts when flow 1 completes.
						{Sender: 1, Src: f2[0], Dst: f2[1], Spec: iperf.Spec{Bytes: bytes, CCA: ccaName}, Weight: 1 - f, SetWeight: fair, After: 0, Chained: !fair},
					},
				}
				if fat {
					cfg := fatCfg
					if fair {
						cfg.NewQueue = func(port netsim.FatTreePort) netsim.Queue {
							if port.Tier == netsim.TierCoreDown {
								return netsim.NewDRR(cfg.BufferBytes, cfg.MarkBytes)
							}
							return nil
						}
					}
					plan.FatTree = &cfg
					plan.Watch = func(ft *netsim.FatTree) *netsim.Link { return sharedLink(ft, f1, f2) }
				} else {
					cfg := dumbbellConfig(t)
					if fair {
						cfg.BottleneckQueue = netsim.NewDRR(cfg.BufferBytes, cfg.MarkBytes)
					}
					plan.Dumbbell = &cfg
				}
				tb, _, err := testbed.Build(testbed.Options{Seed: seed, Shards: o.Shards}, plan)
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

// crossRackCollide finds two flows from different source pods whose ECMP
// paths share exactly one link: a core→aggregation downlink into the
// destination pod. Flow 1 runs pod 0 → pod 2 and flow 2 pod 1 → pod 2;
// distinct source pods guarantee the upstream (host, edge→agg, agg→core)
// links differ, so the collision, when the hashes align, is exactly the
// core downlink. Flow ids are fixed (1 and 2, the testbed's assignment
// order), so the search and the runs resolve identical paths. The search is
// exhaustive over endpoint pairs in a fixed order, hence deterministic for
// a given ECMP seed.
func crossRackCollide(ft *netsim.FatTree) (f1, f2 [2]netsim.NodeID, shared *netsim.Link, err error) {
	k := ft.Config.K
	hostsPerPod := (k / 2) * (k / 2)
	host := func(pod, i int) netsim.NodeID { return netsim.NodeID(pod*hostsPerPod + i) }
	for s1 := 0; s1 < hostsPerPod; s1++ {
		for d1 := 0; d1 < hostsPerPod; d1++ {
			for s2 := 0; s2 < hostsPerPod; s2++ {
				for d2 := 0; d2 < hostsPerPod; d2++ {
					if d2 == d1 {
						continue
					}
					f1 = [2]netsim.NodeID{host(0, s1), host(2, d1)}
					f2 = [2]netsim.NodeID{host(1, s2), host(2, d2)}
					if l := sharedLink(ft, f1, f2); l != nil {
						return f1, f2, l, nil
					}
				}
			}
		}
	}
	return f1, f2, nil, errf("no cross-pod flow pair collides on exactly one core link (ECMP seed %d)", ft.Config.ECMPSeed)
}

// sharedLink returns the one link that flow 1 from a[0] to a[1] and flow 2
// from b[0] to b[1] both cross, or nil if they share none or several.
func sharedLink(ft *netsim.FatTree, a, b [2]netsim.NodeID) *netsim.Link {
	path2 := ft.PathFor(2, b[0], b[1])
	var common []*netsim.Link
	for _, l1 := range ft.PathFor(1, a[0], a[1]) {
		for _, l2 := range path2 {
			if l1 == l2 {
				common = append(common, l1)
			}
		}
	}
	if len(common) != 1 {
		return nil
	}
	return common[0]
}

// Table renders the sweep: Figure 1 on the dumbbell, the cross-rack
// layout (shared link and flow endpoints, no Jain column) on a fat-tree.
func (r FractionResult) Table() string {
	var b strings.Builder
	fat := r.K > 0
	if fat {
		fmt.Fprintf(&b, "Cross-rack (k=%d fat-tree) — energy vs fairness at shared core link %s (%.1f Gbit/flow)\n",
			r.K, r.CoreLink, r.FlowGbit)
		fmt.Fprintf(&b, "flow 1: h%d -> h%d   flow 2: h%d -> h%d\n", r.Flow1[0], r.Flow1[1], r.Flow2[0], r.Flow2[1])
		fmt.Fprintf(&b, "%-10s %14s %12s %14s\n", "fraction", "energy (J)", "savings %", "analytic %")
	} else {
		fmt.Fprintf(&b, "Figure 1 — energy savings vs bandwidth fraction to flow 1 (%.1f Gbit/flow)\n", r.FlowGbit)
		fmt.Fprintf(&b, "%-10s %14s %12s %14s %8s\n", "fraction", "energy (J)", "savings %", "analytic %", "jain")
	}
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-10.2f %8.1f ±%4.1f %12.2f %14.2f",
			p.Fraction, p.MeanEnergyJ, p.StdEnergyJ, p.SavingsPct, p.AnalyticSavingsPct)
		if !fat {
			fmt.Fprintf(&b, " %8.3f", p.JainIndex)
		}
		b.WriteString("\n")
	}
	if fat {
		b.WriteString("(the fair split stays worst when the contended resource is a core link:\n")
		b.WriteString(" Theorem 1 only needs a shared bottleneck and concave host power)\n")
	} else {
		fmt.Fprintf(&b, "max savings: %.1f%%  (paper: ~16%%)\n", r.MaxSavingsPct)
	}
	return b.String()
}

// SVG renders savings vs bandwidth fraction.
func (r FractionResult) SVG() (string, error) {
	measured := plot.Series{Name: "measured"}
	analytic := plot.Series{Name: "analytic"}
	for _, p := range r.Points {
		measured.X = append(measured.X, p.Fraction*100)
		measured.Y = append(measured.Y, p.SavingsPct)
		analytic.X = append(analytic.X, p.Fraction*100)
		analytic.Y = append(analytic.Y, p.AnalyticSavingsPct)
	}
	title, xlabel := "Figure 1 — energy savings vs bandwidth fraction to flow 1", "fraction of bandwidth allocated to flow 1 (%)"
	if r.K > 0 {
		title, xlabel = "Cross-rack — energy savings vs core-link bandwidth fraction to flow 1", "fraction of the shared core link allocated to flow 1 (%)"
	}
	return plot.Chart{
		Title:  title,
		XLabel: xlabel,
		YLabel: "energy savings over fair allocation (%)",
		Kind:   "line",
		Series: []plot.Series{measured, analytic},
	}.SVG()
}
