package testbed

import (
	"fmt"

	"greenenvy/internal/iperf"
	"greenenvy/internal/netsim"
)

// Plan is a declarative description of one testbed run: a topology, the
// flows to place on it (with per-flow CCA, size, schedule, and fair-queue
// weight), and background load. It is the single construction path the
// scenario compiler targets — Build performs exactly the calls the
// handwritten experiments make, in the same order, so a plan equal to an
// experiment's hand-built sequence produces byte-identical results.
type Plan struct {
	// Dumbbell selects the dumbbell topology. Exactly one of Dumbbell and
	// FatTree must be set.
	Dumbbell *netsim.DumbbellConfig
	// FatTree selects the fat-tree topology.
	FatTree *netsim.FatTreeConfig
	// Watch, on a fat-tree, picks the link whose queue Run reports as
	// BottleneckStats (the dumbbell watches its bottleneck automatically).
	// It is called once the fabric is built.
	Watch func(*netsim.FatTree) *netsim.Link
	// Flows are installed in order — order matters: each AddFlow draws
	// start jitter from the run RNG, so flow order is part of the
	// deterministic schedule.
	Flows []PlanFlow
	// Loads start stress background load on sender hosts.
	Loads []PlanLoad
}

// PlanFlow places one flow.
type PlanFlow struct {
	// Sender is the dumbbell sender index (ignored on a fat-tree).
	Sender int
	// Src and Dst are the fat-tree endpoints (ignored on a dumbbell,
	// where the receiver is fixed).
	Src, Dst netsim.NodeID
	// Spec is the iperf invocation (CCA, bytes, start/stop, pacing).
	Spec iperf.Spec
	// Weight, when SetWeight is true, is the flow's weight on every
	// tracked DRR queue (set immediately after the flow is added).
	Weight    float64
	SetWeight bool
	// After, when Chained is true, is the index of the flow this one
	// starts behind: it launches (plus its own StartAt offset) when
	// Flows[After] completes — the serial "full speed, then idle"
	// schedule. The explicit flag keeps the zero value meaning "start on
	// schedule", since 0 is a valid chain target.
	After   int
	Chained bool
}

// PlanLoad runs stress background load on a dumbbell sender host.
type PlanLoad struct {
	Sender   int
	Fraction float64
}

// Build assembles a testbed from the plan: topology, then flows in order
// (weights applied as each flow lands), then start-chaining, then loads.
// It returns the clients in plan order for callers that need per-flow
// reports or further chaining.
func Build(opts Options, p Plan) (*Testbed, []*iperf.Client, error) {
	if (p.Dumbbell == nil) == (p.FatTree == nil) {
		return nil, nil, fmt.Errorf("testbed: plan must set exactly one of Dumbbell and FatTree")
	}
	var tb *Testbed
	if p.Dumbbell != nil {
		tb = NewDumbbell(opts, *p.Dumbbell)
	} else {
		tb = NewFatTree(opts, *p.FatTree)
	}
	clients := make([]*iperf.Client, len(p.Flows))
	for i, f := range p.Flows {
		var (
			c   *iperf.Client
			err error
		)
		if p.Dumbbell != nil {
			c, err = tb.AddFlow(f.Sender, f.Spec)
		} else {
			c, err = tb.AddFlowBetween(f.Src, f.Dst, f.Spec)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("testbed: plan flow %d: %w", i, err)
		}
		clients[i] = c
		if f.SetWeight {
			// AddFlow assigned the default dense id when Spec.Flow was 0.
			id := f.Spec.Flow
			if id == 0 {
				id = netsim.FlowID(i + 1)
			}
			if err := tb.SetWeight(id, f.Weight); err != nil {
				return nil, nil, fmt.Errorf("testbed: plan flow %d: %w", i, err)
			}
		}
	}
	for i, f := range p.Flows {
		if !f.Chained {
			continue
		}
		if f.After < 0 || f.After >= len(clients) || f.After == i {
			return nil, nil, fmt.Errorf("testbed: plan flow %d chains after invalid flow %d", i, f.After)
		}
		clients[i].StartAfter(clients[f.After])
	}
	for i, l := range p.Loads {
		if p.Dumbbell == nil {
			return nil, nil, fmt.Errorf("testbed: plan load %d: background load needs the dumbbell topology", i)
		}
		if l.Sender < 0 || l.Sender >= len(tb.Net.Senders) {
			return nil, nil, fmt.Errorf("testbed: plan load %d: sender %d out of range", i, l.Sender)
		}
		if err := tb.AddLoad(l.Sender, l.Fraction); err != nil {
			return nil, nil, fmt.Errorf("testbed: plan load %d: %w", i, err)
		}
	}
	if p.Watch != nil {
		if tb.Fat == nil {
			return nil, nil, fmt.Errorf("testbed: plan Watch needs the fat-tree topology")
		}
		l := p.Watch(tb.Fat)
		if l == nil {
			return nil, nil, fmt.Errorf("testbed: plan Watch found no link to watch")
		}
		tb.WatchBottleneck(l)
	}
	return tb, clients, nil
}
