package greenenvy

import (
	"sort"
	"strings"
	"testing"

	"greenenvy/internal/analysis/registryhygiene"
	"greenenvy/internal/scenario"
)

// TestExperimentCacheIDFacts is the dynamic half of the cache-id audit.
// The registryhygiene analyzer statically forces every Register call to
// declare a persistent-cache id prefix in ExperimentCacheIDs; this test
// closes the loop at runtime:
//
//   - bijection: every registered experiment has a fact entry, and every
//     fact entry names a registered experiment (no stale rows);
//   - collision-freedom: two experiments with different non-empty prefixes
//     must not nest (one being a prefix of the other would let their cache
//     namespaces interleave);
//   - exclusivity: a non-empty prefix belongs to exactly one experiment,
//     except "sweep/", which figures 5-8 share by design (four views over
//     one cached sweep dataset), and the "scenario/" namespace, which every
//     scenario-compiled experiment shares: their cells key under the
//     canonical spec digest inside it, so distinct specs cannot collide.
func TestExperimentCacheIDFacts(t *testing.T) {
	facts := registryhygiene.ExperimentCacheIDs

	registered := map[string]bool{}
	for _, name := range ExperimentNames() {
		registered[name] = true
		if _, ok := facts[name]; !ok {
			t.Errorf("experiment %q is registered but has no cache-id entry in "+
				"internal/analysis/registryhygiene/facts.go: declare its prefix "+
				"(or \"\" for closed-form experiments)", name)
		}
	}
	for _, name := range registryhygiene.SortedExperimentNames(facts) {
		if !registered[name] {
			t.Errorf("fact table lists %q but no such experiment is registered: remove the stale row", name)
		}
	}

	names := registryhygiene.SortedExperimentNames(facts)
	for i, a := range names {
		for _, b := range names[i+1:] {
			pa, pb := facts[a], facts[b]
			if pa == "" || pb == "" || pa == pb {
				continue
			}
			if strings.HasPrefix(pa, pb) || strings.HasPrefix(pb, pa) {
				t.Errorf("cache-id prefixes of %q (%q) and %q (%q) nest: their cache namespaces would interleave",
					a, pa, b, pb)
			}
		}
	}

	owners := map[string][]string{}
	for _, name := range names {
		if p := facts[name]; p != "" {
			owners[p] = append(owners[p], name)
		}
	}
	for p, ns := range owners {
		if len(ns) > 1 && p != "sweep/" && p != registryhygiene.ScenarioCacheIDPrefix {
			sort.Strings(ns)
			t.Errorf("cache-id prefix %q is claimed by %v: distinct experiments must not share a cache namespace", p, ns)
		}
	}
}

// TestScenarioCachePrefixPinned closes the loop between the compiler and
// the static audit: the prefix every scenario-compiled cell id starts with
// must be the constant the registryhygiene fact table pins (and that the
// root init guard panics over). If this fails, scenario experiments are
// caching under a namespace the audit does not cover.
func TestScenarioCachePrefixPinned(t *testing.T) {
	if scenario.CachePrefix != registryhygiene.ScenarioCacheIDPrefix {
		t.Fatalf("scenario.CachePrefix = %q, registryhygiene.ScenarioCacheIDPrefix = %q: the compiler and the static audit disagree",
			scenario.CachePrefix, registryhygiene.ScenarioCacheIDPrefix)
	}
}
