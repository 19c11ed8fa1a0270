package main

import (
	"fmt"
	"runtime"

	"greenenvy"
)

// spec fixes everything about one experiment call except the seed and the
// cache directory. Workers (and Shards, when sharded) follow GOMAXPROCS,
// as greenbench's defaults do; neither changes a printed value.
type spec struct {
	Experiment string  `json:"experiment"`
	Scale      float64 `json:"scale"`
	Reps       int     `json:"reps"`
	Sharded    bool    `json:"sharded"`
}

// options builds the registry options a call runs with.
func (s spec) options(seed uint64, cacheDir string) greenenvy.Options {
	o := greenenvy.Options{
		Reps: s.Reps, Scale: s.Scale, Seed: seed,
		Workers: runtime.GOMAXPROCS(0), CacheDir: cacheDir,
	}
	if s.Sharded {
		o.Shards = runtime.GOMAXPROCS(0)
	}
	return o
}

// workload is one benchmark input: an experiment from the registry at a
// fixed size, how many repetition runs one call performs per repetition,
// and the sha256 of its printed table at the default seed.
type workload struct {
	name   string
	spec   spec
	perRep int
	pin    string
}

// runs is how many repetition runs one call performs: the misses of a
// cold cache and the hits of a warm one.
func (w workload) runs() int { return w.perRep * w.spec.Reps }

// defaultSeed is the seed the table pins hold for.
const defaultSeed = 1

// workloads are sized so that one cold call takes 2.5–4 s on a 2-core
// machine; README.md gives the reasons for each choice.
var workloads = []workload{
	{
		name:   "fig5-sweep",
		spec:   spec{Experiment: "fig5", Scale: 0.005, Reps: 1},
		perRep: 10 * 4, // CCAs × MTUs
		pin:    "6b33175675d8a0cbcf0f4ee85f25eaca79372ee704f66ef3addcf226dc8e05b8",
	},
	{
		name:   "incast-sharded",
		spec:   spec{Experiment: "fattree-incast", Scale: 0.05, Reps: 1, Sharded: true},
		perRep: 3 * 2, // widths 16/64/256 × fair/serial
		pin:    "c1ebf8899bb95389d415b23869ead460cd50fe7400ab1e997a123f2cd859a84d",
	},
	{
		name:   "workload-scale",
		spec:   spec{Experiment: "workload-scale", Scale: 0.015, Reps: 2},
		perRep: 2 * 3 * 2, // distributions × loads × policies
		pin:    "442d327cbcd7ac27e4858329df5d3d794bb2eb824ef13874daf9eb7c17ab4299",
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// resultCounts extracts the deterministic counts a result type exposes.
// A count a workload's result does not expose reads 0.
func resultCounts(r greenenvy.Result) (map[string]float64, error) {
	c := map[string]float64{
		"tcp.retransmits": 0, "sim.simulated_s": 0, "testbed.flows": 0, "testbed.deferred": 0,
	}
	switch r := r.(type) {
	case greenenvy.Fig5Result:
		for _, cell := range r.Sweep.Cells {
			for i := range cell.Retx {
				c["tcp.retransmits"] += cell.Retx[i]
				c["sim.simulated_s"] += cell.FCTSecs[i]
			}
		}
	case greenenvy.FatTreeIncastResult:
		for _, p := range r.Points {
			c["sim.simulated_s"] += p.FairDuration + p.SerialDuration
		}
	case greenenvy.WorkloadScaleResult:
		for _, p := range r.Points {
			c["testbed.flows"] += float64(p.Flows)
			c["testbed.deferred"] += p.Deferred
		}
	default:
		return nil, fmt.Errorf("no counts for result type %T", r)
	}
	return c, nil
}
