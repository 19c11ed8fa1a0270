// Package greenenvy reproduces "Green With Envy: Unfair Congestion Control
// Algorithms Can Be More Energy Efficient" (Arslan, Renganathan, Spang —
// HotNets '23) as a self-contained Go library.
//
// The package exposes three layers:
//
//   - The paper's analysis (Theorem 1, allocation strategies, energy
//     savings and datacenter cost extrapolation), re-exported from
//     internal/core.
//
//   - The simulated testbed replacing the paper's physical lab (§3): a
//     packet-level network with a 10 Gb/s bottleneck, the ten congestion
//     control algorithms the paper measures (plus the §5 production trio —
//     Swift, DCQCN, HPCC), a calibrated host energy model, and emulated
//     RAPL counters.
//
//   - One experiment runner per figure of the paper (RunFig1 … RunFig8 via
//     RunCCASweep), each returning the same rows/series the paper plots,
//     plus the §5 future-work experiments (RunIncast, RunFatTreeIncast,
//     RunCrossRack, RunSameSender, RunProduction, RunWorkload,
//     RunAblations, CompareSchedulers). The fair-vs-serial sweeps (RunFig1,
//     RunIncast, RunFatTreeIncast, RunCrossRack) run builtin scenario specs
//     compiled by internal/scenario, the same declarative form
//     `greenbench -scenario` loads from a file.
//
// Every experiment also registers itself in the experiment registry
// (Experiments, LookupExperiment): a uniform catalogue of name, aliases,
// paper section, and a Run function returning a Result (Table + SVG).
// Generic tooling — cmd/greenbench, the registry tests — discovers
// experiments from the registry instead of hard-coding each one.
//
// Quick start:
//
//	res, err := greenenvy.RunFig1(greenenvy.Options{Reps: 3})
//	// res.MaxSavingsPct ≈ 16 (paper §4.1)
//
//	// Or generically, through the registry:
//	e, _ := greenenvy.LookupExperiment("fig1")
//	r, err := e.Run(greenenvy.Options{Reps: 3})
//	fmt.Println(r.Table())
package greenenvy

import (
	"greenenvy/internal/cca"
	"greenenvy/internal/core"
	"greenenvy/internal/energy"
	"greenenvy/internal/iperf"
	"greenenvy/internal/sim"
	"greenenvy/internal/testbed"
)

// Re-exported analysis types (the paper's contribution).
type (
	// PowerFunc maps throughput (bits/s) to host watts.
	PowerFunc = core.PowerFunc
	// Flow is a transfer demand for the analytic schedulers.
	Flow = core.Flow
	// Schedule is a piecewise-constant rate plan.
	Schedule = core.Schedule
	// Comparison is the SRPT-vs-fair scheduler report.
	Comparison = core.Comparison
	// DatacenterCostModel extrapolates savings to dollars (§4.2).
	DatacenterCostModel = core.DatacenterCostModel
)

// FrontierPoint is one point on the fairness/energy trade-off curve.
type FrontierPoint = core.FrontierPoint

// Assumptions reports whether a power curve satisfies Theorem 1's
// hypotheses.
type Assumptions = core.Assumptions

// Re-exported strategy and theorem functions.
var (
	FairShare              = core.FairShare
	WeightedShare          = core.WeightedShare
	FullSpeedThenIdle      = core.FullSpeedThenIdle
	SavingsOverFair        = core.SavingsOverFair
	CheckTheorem1          = core.CheckTheorem1
	IsStrictlyConcave      = core.IsStrictlyConcave
	CompareSchedulers      = core.Compare
	PaperDatacenter        = core.PaperDatacenter
	FairnessEnergyFrontier = core.FairnessEnergyFrontier
	VerifyAssumptions      = core.VerifyAssumptions
)

// Re-exported energy model types.
type (
	// EnergyModel bundles the calibrated power curve and CPU cost model.
	EnergyModel = energy.Model
	// PowerCurve is the utilization→watts curve.
	PowerCurve = energy.PowerCurve
)

// DefaultEnergyModel returns the model calibrated to the paper's Figure 2
// anchors (21.49 W idle, 34.23 W @5 Gb/s, 35.82 W @10 Gb/s).
func DefaultEnergyModel() EnergyModel { return energy.DefaultModel() }

// PaperPowerFunc adapts the calibrated model into the Figure 2 p(x) curve:
// sender watts as a function of goodput at MTU 9000 under CUBIC.
func PaperPowerFunc() PowerFunc { return energy.PaperPower() }

// Re-exported testbed types for building custom experiments.
type (
	// Testbed is one assembled lab run (§3).
	Testbed = testbed.Testbed
	// TestbedOptions configures the lab.
	TestbedOptions = testbed.Options
	// FlowSpec describes one iperf3-style transfer.
	FlowSpec = iperf.Spec
	// FlowReport is the iperf3-style closing summary.
	FlowReport = iperf.Report
	// RunResult is the bracketed measurement of one run.
	RunResult = testbed.RunResult
)

// NewTestbed assembles a lab instance.
func NewTestbed(opts TestbedOptions) *Testbed { return testbed.New(opts) }

// CCANames lists the ten algorithms in the paper's Figure 5 order.
func CCANames() []string { return cca.PaperOrder() }

// Duration and time aliases so example code does not import internal/sim.
type (
	// SimTime is a simulated timestamp (nanoseconds).
	SimTime = sim.Time
	// SimDuration is a simulated duration (nanoseconds).
	SimDuration = sim.Duration
)

// Common durations for experiment code.
const (
	Millisecond = sim.Millisecond
	Second      = sim.Second
)
