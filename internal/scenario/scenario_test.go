package scenario

import (
	"strings"
	"testing"
)

// minimalFraction is a fraction-sweep spec with every optional field
// omitted.
const minimalFraction = `{
  "name": "t",
  "preset": "fraction-sweep",
  "topology": {"kind": "dumbbell"},
  "sweep": {"gbit_per_flow": 10, "fractions": [0.5, 0.75, 1.0]}
}`

// explicitFraction spells out, in TOML, every default minimalFraction
// leaves implicit. The two must canonicalize — and digest — identically.
const explicitFraction = `
name = "t"
preset = "fraction-sweep"

[topology]
kind = "dumbbell"
senders = 2
bottleneck_bps = 10_000_000_000
access_bps = 10_000_000_000
bonded_links = 2
link_delay_us = 5.0
switch_delay_us = 1.0
buffer_bytes = 1_048_576

[sweep]
cca = "cubic"
gbit_per_flow = 10.0
fractions = [0.5, 0.75, 1.0]
`

func mustParseJSON(t *testing.T, s string) Spec {
	t.Helper()
	spec, err := ParseJSON([]byte(s))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func digestOf(t *testing.T, spec Spec) string {
	t.Helper()
	d, err := spec.Digest()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDigestStability: every spelling of the same physics — JSON vs TOML,
// omitted vs explicit defaults — lands on one digest, so they share one
// cache lineage.
func TestDigestStability(t *testing.T) {
	j := mustParseJSON(t, minimalFraction)
	tomlSpec, err := ParseTOML([]byte(explicitFraction))
	if err != nil {
		t.Fatal(err)
	}
	dj, dt := digestOf(t, j), digestOf(t, tomlSpec)
	if dj != dt {
		cj, _ := j.Canonical()
		ct, _ := tomlSpec.Canonical()
		t.Fatalf("digest differs between minimal JSON (%s) and explicit TOML (%s)\njson canonical: %+v\ntoml canonical: %+v", dj, dt, cj, ct)
	}

	id, err := j.CacheID()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(id, CachePrefix) || len(id) != len(CachePrefix)+12 {
		t.Fatalf("CacheID %q: want %q + 12 hex digits", id, CachePrefix)
	}
}

// TestDigestExcludesPresentation: retitling must keep the cache lineage;
// any physics edit must move it.
func TestDigestExcludesPresentation(t *testing.T) {
	base := mustParseJSON(t, minimalFraction)
	d0 := digestOf(t, base)

	renamed := base
	renamed.Name = "a-completely-different-title"
	renamed.Description = "new words"
	renamed.Section = "§9"
	renamed.Order = 999
	if d := digestOf(t, renamed); d != d0 {
		t.Errorf("presentation metadata changed the digest: %s -> %s", d0, d)
	}

	for _, edit := range []struct {
		name string
		mut  func(*Spec)
	}{
		{"transfer size", func(s *Spec) { s.Sweep.GbitPerFlow = 20 }},
		{"sweep axis", func(s *Spec) { s.Sweep.Fractions = []float64{0.5, 1.0} }},
		{"cca", func(s *Spec) { s.Sweep.CCA = "reno" }},
		{"bottleneck rate", func(s *Spec) { s.Topology.BottleneckBps = 1_000_000_000 }},
		{"link delay", func(s *Spec) { s.Topology.LinkDelayUs = 100 }},
		{"access delays", func(s *Spec) { s.Topology.AccessDelaysUs = []float64{5, 250} }},
	} {
		mutated := mustParseJSON(t, minimalFraction)
		sw := *mutated.Sweep
		mutated.Sweep = &sw
		edit.mut(&mutated)
		if d := digestOf(t, mutated); d == d0 {
			t.Errorf("%s edit did not change the digest", edit.name)
		}
	}
}

// TestCanonicalDoesNotMutateCaller: canonicalization returns a defaulted
// copy; the input spec's slices must be left untouched.
func TestCanonicalDoesNotMutateCaller(t *testing.T) {
	spec := Spec{
		Name:     "t",
		Topology: Topology{Kind: KindDumbbell},
		Flows:    []Flow{{Gbit: 1}, {Gbit: 2}},
	}
	if _, err := spec.Canonical(); err != nil {
		t.Fatal(err)
	}
	if spec.Flows[0].CCA != "" {
		t.Errorf("Canonical wrote the default CCA %q back into the caller's flow", spec.Flows[0].CCA)
	}
}

// TestInvalidSpecs: every malformed spec is rejected with an error that
// names the failing field, never silently defaulted.
func TestInvalidSpecs(t *testing.T) {
	cases := []struct {
		name, spec, want string
	}{
		{"missing name", `{"topology":{"kind":"dumbbell"},"flows":[{"gbit":1}]}`, "needs a name"},
		{"unknown preset", `{"name":"t","preset":"nope","topology":{"kind":"dumbbell"}}`, `unknown preset "nope"`},
		{"missing topology kind", `{"name":"t","flows":[{"gbit":1}]}`, "topology needs a kind"},
		{"unknown topology kind", `{"name":"t","topology":{"kind":"ring"},"flows":[{"gbit":1}]}`, `unknown topology kind "ring"`},
		{"no flows", `{"name":"t","topology":{"kind":"dumbbell"}}`, "has no flows"},
		{"unknown queue kind", `{"name":"t","topology":{"kind":"dumbbell","queue":{"kind":"red"}},"flows":[{"gbit":1}]}`, `unknown queue kind "red"`},
		{"queue params on droptail", `{"name":"t","topology":{"kind":"dumbbell","queue":{"kind":"droptail","target_us":50}},"flows":[{"gbit":1}]}`, "takes no AQM parameters"},
		{"pie with quantum", `{"name":"t","topology":{"kind":"dumbbell","queue":{"kind":"pie","quantum":9216}},"flows":[{"gbit":1}]}`, "pie uses target_us/tupdate_us"},
		{"both sizes", `{"name":"t","topology":{"kind":"dumbbell"},"flows":[{"gbit":1,"bytes":5}]}`, "exactly one of gbit"},
		{"neither size", `{"name":"t","topology":{"kind":"dumbbell"},"flows":[{}]}`, "exactly one of gbit"},
		{"unknown cca", `{"name":"t","topology":{"kind":"dumbbell"},"flows":[{"gbit":1,"cca":"quic"}]}`, `unknown cca "quic"`},
		{"sender out of range", `{"name":"t","topology":{"kind":"dumbbell"},"flows":[{"gbit":1,"sender":7}]}`, "sender 7 out of range"},
		{"weight without drr", `{"name":"t","topology":{"kind":"dumbbell"},"flows":[{"gbit":1,"weight":0.5}]}`, "weight needs the drr queue"},
		{"self chain", `{"name":"t","topology":{"kind":"dumbbell"},"flows":[{"gbit":1,"after":0}]}`, "must name another flow"},
		{"fanin with k", `{"name":"t","preset":"fanin-sweep","topology":{"kind":"fattree","k":4},"sweep":{"total_gbit":20,"widths":[4]}}`, "derives k per width"},
		{"fanin dumbbell with senders", `{"name":"t","preset":"fanin-sweep","topology":{"kind":"dumbbell","senders":4},"sweep":{"total_gbit":20,"widths":[4]}}`, "derives the senders per width"},
		{"fanin dumbbell with access delays", `{"name":"t","preset":"fanin-sweep","topology":{"kind":"dumbbell","access_delays_us":[5]},"sweep":{"total_gbit":20,"widths":[4]}}`, "derives the senders per width"},
		{"fanin wide width of one", `{"name":"t","preset":"fanin-sweep","topology":{"kind":"fattree"},"sweep":{"total_gbit":20,"widths":[4],"wide_width":1}}`, "sweep.wide_width = 1"},
		{"fraction on fattree without k", `{"name":"t","preset":"fraction-sweep","topology":{"kind":"fattree"},"sweep":{"gbit_per_flow":10,"fractions":[0.5]}}`, "must be even and >= 4"},
		{"fraction on one sender", `{"name":"t","preset":"fraction-sweep","topology":{"kind":"dumbbell","senders":1},"sweep":{"gbit_per_flow":10,"fractions":[0.5]}}`, "senders must be at least 2"},
		{"sweep preset with loads", `{"name":"t","preset":"fraction-sweep","topology":{"kind":"dumbbell"},"sweep":{"gbit_per_flow":10,"fractions":[0.5]},"loads":[{"fraction":0.5}]}`, "runs no background load"},
		{"odd arity", `{"name":"t","topology":{"kind":"fattree","k":5},"flows":[{"gbit":1,"src":0,"dst":1}]}`, "must be even"},
		{"fraction out of range", `{"name":"t","preset":"fraction-sweep","topology":{"kind":"dumbbell"},"sweep":{"gbit_per_flow":10,"fractions":[0.3]}}`, "outside [0.5, 1.0]"},
		{"sweep preset with flows", `{"name":"t","preset":"fraction-sweep","topology":{"kind":"dumbbell"},"flows":[{"gbit":1}],"sweep":{"gbit_per_flow":10,"fractions":[0.5]}}`, "generates its own flows"},
		{"sweep preset with queue", `{"name":"t","preset":"fraction-sweep","topology":{"kind":"dumbbell","queue":{"kind":"codel"}},"sweep":{"gbit_per_flow":10,"fractions":[0.5]}}`, "owns the queue discipline"},
		{"aqm-matrix stray cca", `{"name":"t","preset":"aqm-matrix","topology":{"kind":"dumbbell"},"sweep":{"cca":"cubic","gbit_per_flow":1,"ccas":["cubic"],"queues":[{"kind":"pie"}]}}`, "takes only sweep.ccas"},
		{"load out of range", `{"name":"t","topology":{"kind":"dumbbell"},"flows":[{"gbit":1}],"loads":[{"fraction":1.5}]}`, "outside (0, 1]"},
		{"dumbbell with fattree fields", `{"name":"t","topology":{"kind":"dumbbell","k":4},"flows":[{"gbit":1}]}`, "does not take fat-tree fields"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spec := mustParseJSON(t, c.spec)
			_, err := Compile(spec)
			if err == nil {
				t.Fatalf("Compile accepted an invalid spec: %s", c.spec)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not name the failure (want substring %q)", err, c.want)
			}
			if !strings.HasPrefix(err.Error(), "scenario: ") {
				t.Fatalf("error %q is missing the package prefix", err)
			}
		})
	}
}

// TestParseJSONRejectsUnknownFields: a typo'd key must fail loudly.
func TestParseJSONRejectsUnknownFields(t *testing.T) {
	if _, err := ParseJSON([]byte(`{"name":"t","topolgy":{"kind":"dumbbell"}}`)); err == nil {
		t.Fatal("misspelled key accepted")
	}
	if _, err := ParseJSON([]byte(`{"name":"t"} {"second":"doc"}`)); err == nil || !strings.Contains(err.Error(), "trailing data") {
		t.Fatalf("trailing document accepted: %v", err)
	}
}

// TestBuiltins: the shipped specs compile, and lookups are total.
func TestBuiltins(t *testing.T) {
	for _, name := range BuiltinNames() {
		spec, _, ok := Builtin(name)
		if !ok {
			t.Fatalf("BuiltinNames lists %q but Builtin does not return it", name)
		}
		if spec.Name != name {
			t.Errorf("builtin %q names itself %q", name, spec.Name)
		}
		e, err := Compile(spec)
		if err != nil {
			t.Errorf("builtin %q does not compile: %v", name, err)
		}
		if e.Name != name || e.Description == "" || e.Section == "" || e.Run == nil {
			t.Errorf("builtin %q compiled with incomplete metadata: %+v", name, e)
		}
	}
	if _, _, ok := Builtin("no-such-spec"); ok {
		t.Fatal("Builtin returned a spec for an unknown name")
	}
}
