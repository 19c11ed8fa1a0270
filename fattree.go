package greenenvy

import (
	"fmt"
	"strings"

	"greenenvy/internal/core"
	"greenenvy/internal/iperf"
	"greenenvy/internal/netsim"
	"greenenvy/internal/registry"
	"greenenvy/internal/sim"
	"greenenvy/internal/testbed"
)

// This file is crossrack: the Figure 1 energy-vs-fairness sweep with the
// shared bottleneck relocated from the dumbbell onto a core link of a
// k-ary fat-tree — two flows from different pods whose ECMP paths collide
// on one core→aggregation downlink. Its sibling on the same fabric,
// fattree-incast, is a builtin scenario spec (scenario.FatTreeIncast).

func init() {
	Register(Experiment{
		Name: "crossrack", Order: 116, Section: "§5",
		Description: "energy vs fairness when the shared bottleneck is a fat-tree core link",
		Run:         func(o Options) (Result, error) { return RunCrossRack(o) },
	})
}

// CrossRackPoint is one x-position of the cross-rack fairness sweep.
type CrossRackPoint struct {
	// Fraction of the contended core link allocated to flow 1 (0.5 = fair,
	// 1.0 = full speed then idle).
	Fraction    float64
	MeanEnergyJ float64
	StdEnergyJ  float64
	// SavingsPct is energy saving over the fair point, in percent.
	SavingsPct float64
	// AnalyticSavingsPct is the closed-form prediction at the core rate.
	AnalyticSavingsPct float64
}

// CrossRackResult is the Figure 1 sweep with the bottleneck at the core.
type CrossRackResult struct {
	// K is the tree arity (4: the smallest fabric with a contended core).
	K int
	// CoreLink names the shared core→aggregation downlink.
	CoreLink string
	// Flow1 and Flow2 are the (src, dst) host pairs whose ECMP paths
	// collide on CoreLink and share no other link.
	Flow1, Flow2 [2]netsim.NodeID
	Points       []CrossRackPoint
	FairEnergyJ  float64
	// FlowGbit is the per-flow transfer size used.
	FlowGbit float64
}

// crossRackCollide finds two flows from different source pods whose ECMP
// paths share exactly one link: a core→aggregation downlink into the
// destination pod. Flow IDs are fixed (1 and 2, the testbed's assignment
// order), so the search and the runs resolve identical paths. The search is
// exhaustive over candidate endpoint pairs in a fixed order, hence
// deterministic for a given ECMP seed.
func crossRackCollide(ft *netsim.FatTree) (f1, f2 [2]netsim.NodeID, shared *netsim.Link, err error) {
	k := ft.Config.K
	hostsPerPod := (k / 2) * (k / 2)
	podHosts := func(p int) []netsim.NodeID {
		out := make([]netsim.NodeID, hostsPerPod)
		for i := range out {
			out[i] = netsim.NodeID(p*hostsPerPod + i)
		}
		return out
	}
	// Flow 1: pod 0 → pod 2; flow 2: pod 1 → pod 2. Distinct source pods
	// guarantee the upstream (host, edge→agg, agg→core) links differ; the
	// collision, when the hashes align, is exactly the core downlink.
	for _, src1 := range podHosts(0) {
		for _, dst1 := range podHosts(2) {
			path1 := ft.PathFor(1, src1, dst1)
			if len(path1) == 0 {
				continue
			}
			for _, src2 := range podHosts(1) {
				for _, dst2 := range podHosts(2) {
					if dst2 == dst1 {
						continue
					}
					path2 := ft.PathFor(2, src2, dst2)
					var common []*netsim.Link
					for _, l1 := range path1 {
						for _, l2 := range path2 {
							if l1 == l2 {
								common = append(common, l1)
							}
						}
					}
					if len(common) == 1 {
						return [2]netsim.NodeID{src1, dst1}, [2]netsim.NodeID{src2, dst2}, common[0], nil
					}
				}
			}
		}
	}
	return f1, f2, nil, fmt.Errorf("greenenvy: no cross-pod flow pair collides on exactly one core link (ECMP seed %d)", ft.Config.ECMPSeed)
}

// RunCrossRack sweeps the bandwidth fraction given to flow 1 of two
// cross-pod flows whose ECMP paths collide on one core→aggregation
// downlink — Figure 1's experiment with the shared bottleneck at the core
// of a k=4 fat-tree instead of an edge port. Fairness is imposed by DRRs on
// every core downlink (only the contended one matters); fraction 1.0 is the
// serial schedule.
func RunCrossRack(o Options) (CrossRackResult, error) {
	o, err := o.WithDefaults()
	if err != nil {
		return CrossRackResult{}, err
	}
	bytes := uint64(10 * registry.PaperGbit * o.Scale)
	if bytes == 0 {
		return CrossRackResult{}, fmt.Errorf("greenenvy: scale too small")
	}
	const k = 4
	baseCfg := netsim.DefaultFatTree(k)
	baseCfg.ECMPSeed = o.Seed

	// Discover the colliding endpoint pair on a throwaway instance; the
	// per-repetition builds re-resolve the same link by the same hashes.
	probe := netsim.NewFatTree(sim.NewEngine(), baseCfg)
	f1, f2, sharedProbe, err := crossRackCollide(probe)
	if err != nil {
		return CrossRackResult{}, err
	}
	res := CrossRackResult{
		K:        k,
		CoreLink: sharedProbe.Name,
		Flow1:    f1,
		Flow2:    f2,
		FlowGbit: float64(bytes) * 8 / 1e9,
	}

	// Analytic predictions at the contended core link's rate.
	p := PaperPowerFunc()
	flows := []core.Flow{{Bytes: float64(bytes)}, {Bytes: float64(bytes)}}
	rate := float64(baseCfg.AggCoreBps)
	fractions := []float64{0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	analytic := make(map[float64]float64)
	for _, f := range fractions {
		s, err := core.WeightedShare(flows, rate, []float64{f, 1 - f})
		if err != nil {
			return CrossRackResult{}, err
		}
		sav, err := core.SavingsOverFair(s, rate, p)
		if err != nil {
			return CrossRackResult{}, err
		}
		analytic[f] = sav * 100
	}

	deadline := registry.DeadlineFor(2 * bytes)
	for _, f := range fractions {
		id := fmt.Sprintf("crossrack/k=%d/ecmp=%d/frac=%.2f/bytes=%d/sh=%d", k, o.Seed, f, bytes, o.ShardTag())
		aggs, err := registry.RunCell(o, id, func(seed uint64) (*testbed.Testbed, error) {
			cfg := baseCfg
			if f < 1.0 {
				cfg.NewQueue = func(port netsim.FatTreePort) netsim.Queue {
					if port.Tier == netsim.TierCoreDown {
						return netsim.NewDRR(cfg.BufferBytes, cfg.MarkBytes)
					}
					return nil
				}
			}
			tb := testbed.NewFatTree(testbed.Options{Seed: seed, Shards: o.Shards}, cfg)
			c1, err := tb.AddFlowBetween(f1[0], f1[1], iperf.Spec{Bytes: bytes, CCA: "cubic"})
			if err != nil {
				return nil, err
			}
			c2, err := tb.AddFlowBetween(f2[0], f2[1], iperf.Spec{Bytes: bytes, CCA: "cubic"})
			if err != nil {
				return nil, err
			}
			_, _, shared, err := crossRackCollide(tb.Fat)
			if err != nil {
				return nil, err
			}
			tb.WatchBottleneck(shared)
			if f < 1.0 {
				if err := tb.SetWeight(c1.Report().Flow, f); err != nil {
					return nil, err
				}
				if err := tb.SetWeight(c2.Report().Flow, 1-f); err != nil {
					return nil, err
				}
			} else {
				c2.StartAfter(c1)
			}
			return tb, nil
		}, deadline, registry.SenderJoules, registry.EventsFired)
		if err != nil {
			return CrossRackResult{}, fmt.Errorf("crossrack fraction %v: %w", f, err)
		}
		res.Points = append(res.Points, CrossRackPoint{
			Fraction:           f,
			MeanEnergyJ:        aggs[0].Mean,
			StdEnergyJ:         aggs[0].Std,
			AnalyticSavingsPct: analytic[f],
		})
		o.Logf("crossrack: f=%.2f energy=%.1f±%.1f J (%.0f events/run)", f, aggs[0].Mean, aggs[0].Std, aggs[1].Mean)
	}

	res.FairEnergyJ = res.Points[0].MeanEnergyJ
	for i := range res.Points {
		res.Points[i].SavingsPct = (res.FairEnergyJ - res.Points[i].MeanEnergyJ) / res.FairEnergyJ * 100
	}
	return res, nil
}

// Table renders the cross-rack sweep.
func (r CrossRackResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cross-rack (k=%d fat-tree) — energy vs fairness at shared core link %s (%.1f Gbit/flow)\n",
		r.K, r.CoreLink, r.FlowGbit)
	fmt.Fprintf(&b, "flow 1: h%d -> h%d   flow 2: h%d -> h%d\n", r.Flow1[0], r.Flow1[1], r.Flow2[0], r.Flow2[1])
	fmt.Fprintf(&b, "%-10s %14s %12s %14s\n", "fraction", "energy (J)", "savings %", "analytic %")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-10.2f %8.1f ±%4.1f %12.2f %14.2f\n",
			p.Fraction, p.MeanEnergyJ, p.StdEnergyJ, p.SavingsPct, p.AnalyticSavingsPct)
	}
	b.WriteString("(the fair split stays worst when the contended resource is a core link:\n")
	b.WriteString(" Theorem 1 only needs a shared bottleneck and concave host power)\n")
	return b.String()
}
