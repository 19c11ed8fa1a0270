package greenenvy

import (
	"strings"
	"testing"
)

// canonicalOrder is the expected -fig all sequence: the paper's figures in
// number order, then the analytic and extension experiments.
var canonicalOrder = []string{
	"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
	"theorem", "scheduler", "incast", "fattree-incast", "crossrack",
	"aqm-matrix", "samesender", "ablations", "frontier", "production",
	"workload", "workload-scale", "workload-crossover",
}

func TestRegistryMetadata(t *testing.T) {
	exps := Experiments()
	if len(exps) != len(canonicalOrder) {
		t.Fatalf("registry has %d experiments, want %d", len(exps), len(canonicalOrder))
	}
	for i, e := range exps {
		if e.Name != canonicalOrder[i] {
			t.Errorf("Experiments()[%d] = %q, want %q", i, e.Name, canonicalOrder[i])
		}
		if e.Description == "" {
			t.Errorf("%s: empty description", e.Name)
		}
		if e.Section == "" {
			t.Errorf("%s: empty paper section", e.Name)
		}
		if e.Run == nil {
			t.Errorf("%s: nil Run", e.Name)
		}
	}

	seen := map[string]string{}
	for _, e := range exps {
		for _, key := range append([]string{e.Name}, e.Aliases...) {
			if prev, dup := seen[key]; dup {
				t.Errorf("key %q registered by both %s and %s", key, prev, e.Name)
			}
			seen[key] = e.Name
			got, ok := LookupExperiment(key)
			if !ok || got.Name != e.Name {
				t.Errorf("LookupExperiment(%q) = %q, %v; want %q", key, got.Name, ok, e.Name)
			}
		}
	}
	for fig := 1; fig <= 8; fig++ {
		want := canonicalOrder[fig-1]
		if e, ok := LookupExperiment(strings.TrimPrefix(want, "fig")); !ok || e.Name != want {
			t.Errorf("numeric alias for %s does not resolve", want)
		}
	}
	if _, ok := LookupExperiment("no-such-experiment"); ok {
		t.Error("LookupExperiment resolved a name that was never registered")
	}

	names := ExperimentNames()
	for i, want := range canonicalOrder {
		if names[i] != want {
			t.Fatalf("ExperimentNames()[%d] = %q, want %q", i, names[i], want)
		}
	}
}

func TestRegisterRejectsBadExperiments(t *testing.T) {
	expectPanic := func(what string, e Experiment) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("Register accepted %s", what)
			}
		}()
		Register(e)
	}
	run := func(Options) (Result, error) { return nil, nil }
	expectPanic("a nameless experiment", Experiment{Run: run})
	expectPanic("a runless experiment", Experiment{Name: "x"})
	expectPanic("a duplicate name", Experiment{Name: "fig1", Run: run})
	expectPanic("an alias shadowing a name", Experiment{Name: "x", Aliases: []string{"5"}, Run: run})
}

// TestEveryExperimentRunsAtTinyScale drives each registered experiment
// through its registry Run at digestOpts' tiny scale and checks the uniform
// Result contract: a non-empty table and a well-formed SVG document. The
// simulation-heavy experiments share digestOpts' in-process sweep cache with
// the golden-digest test, so the whole pass stays cheap.
func TestEveryExperimentRunsAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every registered experiment")
	}
	o := digestOpts()
	for _, e := range Experiments() {
		t.Run(e.Name, func(t *testing.T) {
			res, err := e.Run(o)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			tbl := res.Table()
			if strings.TrimSpace(tbl) == "" {
				t.Fatal("empty table")
			}
			svg, err := res.SVG()
			if err != nil {
				t.Fatalf("SVG: %v", err)
			}
			if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(strings.TrimSpace(svg), "</svg>") {
				t.Fatalf("malformed SVG (%d bytes)", len(svg))
			}
			got := [2]string{sha256Hex(tbl), sha256Hex(svg)}
			if want, ok := experimentPins[e.Name]; !ok || got != want {
				t.Errorf("output digests {table, svg} = %q, want %q", got, want)
			}
		})
	}
}

// experimentPins is the sha256 of every registered experiment's Table() and
// SVG() at digestOpts. Refactors of the run harness, the cache plumbing or
// an experiment's wiring must leave them unchanged; only an intended output
// change may move one, explained in CHANGES.md.
var experimentPins = map[string][2]string{
	"fig1": {"0d9bde9d0d517018d49b23bdb159c739747c15955e0939fcf6d2c9fd5aae86ef",
		"59fba6609de0ef5a3d8cac1cba12a9e14bfd3f3ae6d57ebcd47d6d637334e055"},
	"fig2": {"bf35870fa462efb4ddbf3664306dae396811fa08984f71c7dc14092b0fb05ce2",
		"67920b076546e614e7edfb870d9877946ca8a7bc3e5fb2a0965042fd011ca4ab"},
	"fig3": {"6782d8c3d9d3c5abf68e9699bd3d764449bf9d71ab8d21c320ba914cd55bf8b4",
		"a870ffb7810dba2474fbf720d89a54bf7d8bcb80b7666f1c0f6c537cef29e2d3"},
	"fig4": {"9d2caf3036e711f1eabbac44d7a9301198065fa8ab5cc840b1ae21923eb75f15",
		"4030bf7c0b75a51c3f3123e010688684a04b950638d4b9207474a0871d2871a7"},
	"fig5": {"387927499f531a17b764225c24c53de47d65d6cb5bd1cea66f39f2a0e52a5a1d",
		"fcfc3598a55b43eff2ec50fa42f37dd087568dbcfa617dceff619dc7bb20a2b3"},
	"fig6": {"0493927cc75a93f3f072f7bfd3a6f9a3cc23f014d5657be22fcd59e37a8d2fbe",
		"2d127aa1dd8b214a882b0f17a52bb5ab47bbaf07150baa4ae08624c0631af74b"},
	"fig7": {"d6b488d913bea89de772298af69d9c016c01d5ca9f58a2fb99978bfd39744d04",
		"5efef2bec6aa154b372a1afc9378e52f0410fbef781890d96963f87f2a8e735d"},
	"fig8": {"2f5e54b635745780013592b3c3aae09a30448d482e639e94625adba4d3aeb03c",
		"30d336ad84e009d47c98ae8582dd64a26dee53523c64a9a77fcd2f7767cbf330"},
	"theorem": {"cbf29638192347e166be286324dfa5c711ea2a642eec76e3093ab468910ffe80",
		"a0b0f56dce3462383b1f529d355e8b90cb577aa611d06bd27a26d1956dbec4fa"},
	"scheduler": {"cf043cf2bc4cfe3c07c76af1d72c24ea3de45d60a291320e6f1822b55a67196c",
		"2bbf6b55cc9d81e857def8bd6d36786c6581e400dc2889724d6c8ddb9792e13e"},
	"incast": {"94e2407814f8bca4825db085dcdc4849787f34cd96ee122a9ccd5b6c14de4d82",
		"9b0721a38f07a105b15e6e0b141e6008c68d520132abb628ec977a4abe12e789"},
	"fattree-incast": {"b28cdf8cc16a3bd12879732ecb872e117a7b876cd8d217fe35126e4377064d90",
		"8533cf277d2d48b0ec6ef0429b8f6717ce1d79b999edafdce8b196878526917c"},
	"crossrack": {"5572494a79014e65523a32796858d87403655ccb05acd4c5fc743d39ed6f1c17",
		"25f475c1526064f92b5af2d33f7ff01a2a4e166041cc27d07f8f6ea94a2b4345"},
	"aqm-matrix": {"b110727ad68b34c5b6c4db03eea22371f2786742f0563e42c168e941424fed54",
		"e22049712a0f283488543bccada56fb0bd9fa4050cb578680784df56ad4aebde"},
	"samesender": {"da39b364365b5a00d6cb3ff5dada2983b73cd8f1b8b252d5644b88da47413e6a",
		"e70cecdba95ea7e6ed5ab85bc6691cefbde93bcf0845023e85c523a7e8e23387"},
	"ablations": {"60c8854a443a909bf433f880fa2c15a435c9bab6e3d4b7c3c574d751bb7f90d5",
		"9b929e1e3ca00e6f4bfca76f83fa4939ab96ade346d2d7ac99b413512817f658"},
	"frontier": {"3947a5ab1e5cf985e5eec886aa126aad2045550b86bc5c23ef21678c61709bcb",
		"9b30169c6fbf5b14fe8b9d290a38f71762927f7594948bdb4b46c123dd16ea7f"},
	"production": {"c9575235dbf38dc92460610fc092fff0fed8624dd518d8945f666ac98ad8cc4c",
		"f527ea3a34e0da04cd4c4cc07e58fa789b8a7e89b0a308fc9a89537755e2fb1c"},
	"workload": {"1892a6a5c5c2935adc895cb215669fc6ea89ff691078f3e88a8238d560d306a7",
		"bb390593ac681f9cb6291ae64d77e7fa84a65c84038bc8be4b8d0b8a5c66961d"},
	"workload-scale": {"8e2a46fb841c8f47af9fab6c695a0cf1f15f6c6d8b1325e3f31cc1c1f1f6a645",
		"cbf0fd17f1bad3b635c9bcb8f7f351ba7f265d1c4495543c4dfe228ffdbc6b40"},
	"workload-crossover": {"e54d8f9eeb40691a7132e71b3182f69cee17823712d1f1f59b4b99895d10e873",
		"d72eda34ab8f1d786c5edf10fefefc4df51116208613f4bdc2205fd97212b0e8"},
}

func TestEveryExperimentRejectsBadScale(t *testing.T) {
	for _, e := range Experiments() {
		if _, err := e.Run(Options{Scale: 5}); err == nil {
			t.Errorf("%s: Scale=5 did not return an error", e.Name)
		}
	}
}
