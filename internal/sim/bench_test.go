package sim_test

// Engine microbenchmarks. The bodies live in internal/perf, shared with
// the other packages' wrappers; these expose them to `go test -bench`.

import (
	"testing"

	"greenenvy/internal/perf"
)

func BenchmarkEngineEventLoop(b *testing.B) { perf.BenchEngineEventLoop(b) }

func BenchmarkTimerRearm(b *testing.B) { perf.BenchTimerRearm(b) }
