package greenenvy

import (
	"fmt"

	"greenenvy/internal/scenario"
)

// The scenario language (internal/scenario) compiles declarative
// topology/AQM/CCA/flow specs into registry experiments. Built-in specs
// register here at init through RegisterScenario; user spec files enter
// through RegisterScenarioFile (greenbench -scenario). Both funnel into
// Register, which is the shape greenvet's registryhygiene analyzer audits:
// RegisterScenario calls need a literal name whose fact-table entry is the
// "scenario/" namespace, and RegisterScenarioFile is documented-exempt —
// runtime-loaded specs are digest-namespaced under that same prefix by
// construction, so they cannot collide with any audited cache lineage.

func init() {
	// Cross-check the compiler's cache namespace against the literal the
	// static fact table pins (registryhygiene.ScenarioCacheIDPrefix). A
	// drift would silently move every scenario experiment's cache lineage
	// out from under the audit.
	if scenario.CachePrefix != "scenario/" {
		panic("greenenvy: scenario.CachePrefix diverged from the audited \"scenario/\" namespace")
	}
	RegisterScenario("fig1")
	RegisterScenario("incast")
	RegisterScenario("fattree-incast")
	RegisterScenario("crossrack")
	RegisterScenario("aqm-matrix")
}

// Fig1Result reproduces Figure 1: "Increasing throughput imbalance for two
// competing TCP flows can reduce energy usage."
type Fig1Result = scenario.FractionResult

// Fig1Point is one x-position of the paper's Figure 1: the bandwidth
// fraction allocated to flow 1 and the measured total sender energy.
type Fig1Point = scenario.FractionPoint

// IncastResult sweeps the number of synchronized senders sharing the
// dumbbell bottleneck (the §5 "incast" direction).
type IncastResult = scenario.FanInResult

// IncastPoint is one fan-in width of the incast sweep.
type IncastPoint = scenario.FanInPoint

// CrossRackResult is the Figure 1 sweep with the bottleneck at a fat-tree
// core link.
type CrossRackResult = scenario.FractionResult

// CrossRackPoint is one x-position of the cross-rack fairness sweep.
type CrossRackPoint = scenario.FractionPoint

// FatTreeIncastResult sweeps synchronized cross-rack fan-in on a fat-tree.
type FatTreeIncastResult = scenario.FanInResult

// FatTreeIncastPoint is one fan-in width of the fat-tree incast sweep.
type FatTreeIncastPoint = scenario.FanInPoint

// RunFig1 sweeps the bandwidth fraction given to flow 1 (via weighted fair
// queueing at the bottleneck, work-conserving exactly as §1 describes) and
// measures total sender energy from experiment start until both flows
// complete. The paper's result: the fair split is worst; the serial
// schedule saves ≈16 %. It runs the registered fig1 spec (scenario.Fig1).
func RunFig1(o Options) (Fig1Result, error) { return runRegistered[Fig1Result]("fig1", o) }

// RunFatTreeIncast measures fair-vs-serial energy for synchronized senders
// spread across the racks of a k-ary fat-tree, all converging on one
// receiver host. Fair imposes equal weights with a DRR on the receiver's
// edge downlink; serial chains the transfers. The 1024-sender width only
// runs at Scale >= 0.25 so tiny-scale smoke runs stay cheap. It runs the
// registered fattree-incast spec (scenario.FatTreeIncast).
func RunFatTreeIncast(o Options) (FatTreeIncastResult, error) {
	return runRegistered[FatTreeIncastResult]("fattree-incast", o)
}

// RunIncast measures fair-vs-serial energy for 2..16 synchronized senders
// moving a fixed aggregate volume through the 10 Gb/s dumbbell bottleneck.
// Theorem 1 predicts fair stays worst at every width. It runs the
// registered incast spec (scenario.Incast).
func RunIncast(o Options) (IncastResult, error) { return runRegistered[IncastResult]("incast", o) }

// RunCrossRack sweeps the bandwidth fraction given to flow 1 of two
// cross-pod flows whose ECMP paths collide on one core→aggregation downlink
// of a k=4 fat-tree: Figure 1's experiment with the shared bottleneck at
// the core instead of an edge port. It runs the registered crossrack spec
// (scenario.CrossRack).
func RunCrossRack(o Options) (CrossRackResult, error) {
	return runRegistered[CrossRackResult]("crossrack", o)
}

// runRegistered runs a registered experiment and returns its result as the
// concrete type its runner produces.
func runRegistered[R Result](name string, o Options) (R, error) {
	var zero R
	e, _ := LookupExperiment(name)
	res, err := e.Run(o)
	if err != nil {
		return zero, err
	}
	return res.(R), nil
}

// RegisterScenario compiles the named built-in spec (scenario.Builtin) and
// registers the resulting experiment under the builtin's aliases. It
// panics on unknown names and non-compiling specs: built-ins register at
// init time, so a failure is a programmer error, not a runtime condition.
func RegisterScenario(name string) {
	spec, aliases, ok := scenario.Builtin(name)
	if !ok {
		panic(fmt.Sprintf("greenenvy: no built-in scenario %q (have %v)", name, scenario.BuiltinNames()))
	}
	e, err := scenario.Compile(spec)
	if err != nil {
		panic(fmt.Sprintf("greenenvy: built-in scenario %q does not compile: %v", name, err))
	}
	e.Aliases = aliases
	Register(e)
}

// RegisterScenarioFile loads a spec file (.json or .toml), compiles it, and
// registers the resulting experiment under the spec's name. Unlike
// RegisterScenario it returns errors instead of panicking — user files are
// runtime input — and rejects names that collide with an already-registered
// experiment before touching the registry (Register would panic).
func RegisterScenarioFile(path string) (string, error) {
	spec, err := scenario.LoadFile(path)
	if err != nil {
		return "", err
	}
	e, err := scenario.Compile(spec)
	if err != nil {
		return "", fmt.Errorf("%w (in %s)", err, path)
	}
	if _, exists := LookupExperiment(e.Name); exists {
		return "", fmt.Errorf("greenenvy: scenario %q (in %s) collides with a registered experiment; rename the spec", e.Name, path)
	}
	Register(e)
	return e.Name, nil
}
