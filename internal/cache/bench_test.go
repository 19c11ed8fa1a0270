package cache_test

import (
	"testing"

	"greenenvy/internal/perf"
)

// The bodies live in internal/perf with the other microbenchmarks; an
// external test package here avoids the cache → perf → cache import cycle.

func BenchmarkSweepCacheWarm(b *testing.B) { perf.BenchSweepCacheWarm(b) }
func BenchmarkSweepCacheCold(b *testing.B) { perf.BenchSweepCacheCold(b) }
