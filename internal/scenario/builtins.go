package scenario

// Builtin specs: scenarios that ship registered in the root package's
// experiment registry, expressed in the same declarative form a user's
// -scenario file uses. Keeping them as data (not hand-built Experiments)
// means the registry, the file loader, and the docs all exercise one
// compiler path.

// Fig1 is the registered fig1 experiment, the paper's Figure 1: two
// competing cubic flows on the dumbbell, sweeping flow 1's share of the
// bottleneck from the fair split to the serial schedule.
func Fig1() Spec {
	return Spec{
		Name:        "fig1",
		Description: "energy savings vs bandwidth fraction for two competing flows",
		Section:     "§4.1",
		Order:       10,
		Preset:      PresetFractionSweep,
		Topology:    Topology{Kind: KindDumbbell},
		Sweep: &Sweep{
			GbitPerFlow: 10,
			Fractions:   []float64{0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95, 1.0},
		},
	}
}

// Incast is the registered incast experiment (§5 future work): fair vs
// serial for 2 to 16 synchronized senders sharing the dumbbell bottleneck
// at constant aggregate volume. Theorem 1 predicts fair stays worst at
// every width.
func Incast() Spec {
	return Spec{
		Name:        "incast",
		Description: "fair-vs-serial savings as synchronized fan-in grows",
		Section:     "§5",
		Order:       110,
		Preset:      PresetFanInSweep,
		Topology:    Topology{Kind: KindDumbbell},
		Sweep: &Sweep{
			TotalGbit: 20,
			Widths:    []int{2, 4, 8, 16},
		},
	}
}

// FatTreeIncast is the registered fattree-incast experiment: Theorem 1 on
// a fabric, fair vs serial cross-rack fan-in swept from 16 to 256 senders
// (1024 at Scale >= 0.25).
func FatTreeIncast() Spec {
	return Spec{
		Name:        "fattree-incast",
		Description: "fair-vs-serial savings for cross-rack fan-in on a fat-tree fabric",
		Section:     "§5",
		Order:       113,
		Preset:      PresetFanInSweep,
		Topology:    Topology{Kind: KindFatTree},
		Sweep: &Sweep{
			TotalGbit: 20,
			Widths:    []int{16, 64, 256},
			WideWidth: 1024,
		},
	}
}

// CrossRack is the registered crossrack experiment: Figure 1 with the
// shared bottleneck relocated onto a core link of a k=4 fat-tree, where
// two cross-pod flows' ECMP paths collide.
func CrossRack() Spec {
	return Spec{
		Name:        "crossrack",
		Description: "energy vs fairness when the shared bottleneck is a fat-tree core link",
		Section:     "§5",
		Order:       116,
		Preset:      PresetFractionSweep,
		Topology:    Topology{Kind: KindFatTree, K: 4},
		Sweep: &Sweep{
			GbitPerFlow: 10,
			Fractions:   []float64{0.5, 0.6, 0.7, 0.8, 0.9, 1.0},
		},
	}
}

// AQMMatrix is the registered aqm-matrix experiment: four same-CCA flows
// on the dumbbell bottleneck, crossed over {droptail, codel, fq-codel, pie},
// reporting J/GB and Jain fairness per cell.
func AQMMatrix() Spec {
	return Spec{
		Name:        "aqm-matrix",
		Description: "CCA x queue-discipline matrix on the dumbbell: J/GB and Jain fairness per cell",
		Section:     "§5",
		Order:       118,
		Preset:      PresetAQMMatrix,
		Topology: Topology{
			Kind:    KindDumbbell,
			Senders: 4,
		},
		Sweep: &Sweep{
			GbitPerFlow: 2.5,
			CCAs:        []string{"cubic", "reno", "bbr", "vegas"},
			Queues: []QueueSpec{
				{Kind: "droptail"},
				{Kind: "codel"},
				{Kind: "fq-codel"},
				{Kind: "pie"},
			},
		},
	}
}

// builtin is one shipped spec and the registry aliases it answers to.
// Aliases live here rather than in Spec: they are registry presentation,
// not something a spec file spells.
type builtin struct {
	spec    func() Spec
	aliases []string
}

// builtins maps registry names to their specs.
var builtins = map[string]builtin{
	"fig1":           {Fig1, []string{"1"}},
	"incast":         {Incast, nil},
	"fattree-incast": {FatTreeIncast, nil},
	"crossrack":      {CrossRack, nil},
	"aqm-matrix":     {AQMMatrix, nil},
}

// Builtin returns the named built-in spec, its registry aliases, and
// whether it exists.
func Builtin(name string) (spec Spec, aliases []string, ok bool) {
	b, ok := builtins[name]
	if !ok {
		return Spec{}, nil, false
	}
	return b.spec(), b.aliases, true
}

// BuiltinNames lists the built-in spec names.
func BuiltinNames() []string {
	names := make([]string, 0, len(builtins))
	for name := range builtins {
		names = append(names, name)
	}
	return names
}
