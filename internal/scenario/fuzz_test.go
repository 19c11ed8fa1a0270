package scenario

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzLoadSpec feeds arbitrary bytes to the JSON (toml=false) or TOML
// (toml=true) spec parser, the boundary `greenbench -scenario` exposes to
// user files. Neither parser may panic, and every spec that parses and
// validates must:
//   - canonicalize idempotently (the canonical form is its own canonical
//     form) and keep its Digest through canonicalization;
//   - survive a round trip through its JSON file form with the same Digest;
//   - compile.
//
// The seed corpus in testdata/fuzz/FuzzLoadSpec holds every shipped example
// spec and every builtin spec in file form.
func FuzzLoadSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, toml bool) {
		parse := ParseJSON
		if toml {
			parse = ParseTOML
		}
		spec, err := parse(data)
		if err != nil {
			return
		}
		c, err := spec.Canonical()
		if err != nil {
			return
		}
		again, err := c.Canonical()
		if err != nil {
			t.Fatalf("canonical form rejected: %v\n%+v", err, c)
		}
		if !reflect.DeepEqual(c, again) {
			t.Fatalf("canonicalization is not idempotent:\nonce:  %+v\ntwice: %+v", c, again)
		}
		want, err := spec.Digest()
		if err != nil {
			t.Fatalf("valid spec has no digest: %v", err)
		}
		if got, err := c.Digest(); err != nil || got != want {
			t.Fatalf("canonical form digests to %s (%v), spec to %s", got, err, want)
		}
		js, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("canonical form does not marshal: %v", err)
		}
		back, err := ParseJSON(js)
		if err != nil {
			t.Fatalf("canonical JSON does not parse: %v\n%s", err, js)
		}
		if got, err := back.Digest(); err != nil || got != want {
			t.Fatalf("JSON round trip digests to %s (%v), want %s\n%s", got, err, want, js)
		}
		if _, err := Compile(spec); err != nil {
			t.Fatalf("valid spec does not compile: %v", err)
		}
	})
}
