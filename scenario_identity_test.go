package greenenvy

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"greenenvy/internal/scenario"
)

// fig1, incast, fattree-incast and crossrack are builtin scenario specs
// (scenario.Fig1, scenario.Incast, scenario.FatTreeIncast,
// scenario.CrossRack). Their tables and SVGs are pinned by sha256 to the
// bytes the experiments printed before they became specs, so the
// compiled form stays a faithful spelling of each experiment: a drift
// means the compiler's construction sequence changed (RNG draw order,
// config defaults, rendering). Same-seed-same-bytes makes the pins hold
// for every worker count, and separately for the monolithic and sharded
// engines.

// loadSpec parses one of the shipped example specs.
func loadSpec(t *testing.T, path string) scenario.Spec {
	t.Helper()
	spec, err := scenario.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// runCompiled compiles a spec and runs it.
func runCompiled(t *testing.T, spec scenario.Spec, o Options) Result {
	t.Helper()
	e, err := scenario.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sha256Hex is the hex sha256 of s.
func sha256Hex(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// checkPins compares a result's table and SVG against their pins.
func checkPins(t *testing.T, what string, res Result, table, svg string) {
	t.Helper()
	if got := sha256Hex(res.Table()); got != table {
		t.Errorf("%s: table sha256 %s, pinned %s\n%s", what, got, table, res.Table())
	}
	doc, err := res.SVG()
	if err != nil {
		t.Fatalf("%s: SVG: %v", what, err)
	}
	if got := sha256Hex(doc); got != svg {
		t.Errorf("%s: SVG sha256 %s, pinned %s", what, got, svg)
	}
}

func TestFig1GoldenPins(t *testing.T) {
	const (
		table = "0d9bde9d0d517018d49b23bdb159c739747c15955e0939fcf6d2c9fd5aae86ef"
		svg   = "59fba6609de0ef5a3d8cac1cba12a9e14bfd3f3ae6d57ebcd47d6d637334e055"
	)
	for _, workers := range []int{1, 4} {
		res, err := RunFig1(Options{Reps: 2, Scale: 0.001, Seed: 1, Workers: workers, CacheDir: ""})
		if err != nil {
			t.Fatal(err)
		}
		checkPins(t, fmt.Sprintf("fig1 workers=%d", workers), res, table, svg)
	}
}

func TestFatTreeIncastGoldenPins(t *testing.T) {
	pins := []struct {
		shards     int
		table, svg string
	}{
		{0, "bf55652a5fadf1a0a556687cefb493677307800cfe1c464a2b72dc30687dede4", "38b774f970123519084b5dfdd02062619170c0a986a492421eb0a69e0b0be84b"},
		{2, "04b38f8ff8c82423d87ac3fb9cc763f65c069d06314c704f494414e3c84736ff", "f8a592292263db11c30258712a030cd1dfb9e3c648b57bb8084009cfb47202f2"},
	}
	for _, p := range pins {
		res, err := RunFatTreeIncast(Options{Reps: 1, Scale: 0.001, Seed: 1, Workers: 2, Shards: p.shards, CacheDir: ""})
		if err != nil {
			t.Fatal(err)
		}
		checkPins(t, fmt.Sprintf("fattree-incast shards=%d", p.shards), res, p.table, p.svg)
	}
}

// TestBuiltinSpecsMatchExamples keeps the shipped example specs faithful:
// each must describe exactly the physics (the Digest) of the builtin it
// re-spells, so running the example reproduces the registered experiment.
func TestBuiltinSpecsMatchExamples(t *testing.T) {
	for name, path := range map[string]string{
		"fig1":           "examples/scenarios/fig1.json",
		"incast":         "examples/scenarios/incast.json",
		"fattree-incast": "examples/scenarios/fattree-incast.json",
		"crossrack":      "examples/scenarios/crossrack.json",
	} {
		builtin, _, ok := scenario.Builtin(name)
		if !ok {
			t.Fatalf("no builtin %q", name)
		}
		want, err := builtin.Digest()
		if err != nil {
			t.Fatal(err)
		}
		got, err := loadSpec(t, path).Digest()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s digests to %s, builtin %q to %s", path, got, name, want)
		}
	}
}

// TestScenarioUnequalRTTExample keeps the shipped heterogeneous-RTT example
// runnable end to end: it must parse, compile, run at tiny scale, and
// actually give the two senders different access delays.
func TestScenarioUnequalRTTExample(t *testing.T) {
	spec := loadSpec(t, "examples/scenarios/unequal-rtt.toml")
	c, err := spec.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Topology.AccessDelaysUs) != 2 || c.Topology.AccessDelaysUs[0] == c.Topology.AccessDelaysUs[1] {
		t.Fatalf("unequal-rtt example lost its heterogeneous delays: %v", c.Topology.AccessDelaysUs)
	}
	res := runCompiled(t, spec, Options{Reps: 2, Scale: 0.001, Seed: 1, CacheDir: ""})
	if res.Table() == "" {
		t.Fatal("empty table")
	}
	if svg, err := res.SVG(); err != nil || len(svg) == 0 {
		t.Fatalf("svg: %v", err)
	}
}

func TestIncastGoldenPins(t *testing.T) {
	const (
		table = "94e2407814f8bca4825db085dcdc4849787f34cd96ee122a9ccd5b6c14de4d82"
		svg   = "9b0721a38f07a105b15e6e0b141e6008c68d520132abb628ec977a4abe12e789"
	)
	for _, workers := range []int{1, 4} {
		res, err := RunIncast(Options{Reps: 2, Scale: 0.001, Seed: 1, Workers: workers, CacheDir: ""})
		if err != nil {
			t.Fatal(err)
		}
		checkPins(t, fmt.Sprintf("incast workers=%d", workers), res, table, svg)
	}
}

func TestCrossRackGoldenPins(t *testing.T) {
	pins := []struct {
		shards     int
		table, svg string
	}{
		{0, "5572494a79014e65523a32796858d87403655ccb05acd4c5fc743d39ed6f1c17", "25f475c1526064f92b5af2d33f7ff01a2a4e166041cc27d07f8f6ea94a2b4345"},
		{2, "a343f96b4c488ae1ec41d1d89ec52490ecbd9ce196d9dfd8b06c18780f2d1796", "42af6c6649e8fed5eab1ba6aeb2acb07c4f38a92d6f9bf43a9923482b1cf7f6f"},
	}
	for _, p := range pins {
		res, err := RunCrossRack(Options{Reps: 2, Scale: 0.001, Seed: 1, Workers: 2, Shards: p.shards, CacheDir: ""})
		if err != nil {
			t.Fatal(err)
		}
		checkPins(t, fmt.Sprintf("crossrack shards=%d", p.shards), res, p.table, p.svg)
	}
}
