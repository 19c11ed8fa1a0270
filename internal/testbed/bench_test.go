package testbed_test

// Flow-churn microbenchmarks. The bodies live in internal/perf, shared with
// the other packages' wrappers; these expose them to `go test -bench`.

import (
	"testing"

	"greenenvy/internal/perf"
)

func BenchmarkWorkloadChurn(b *testing.B) { perf.BenchWorkloadChurn(b) }

func BenchmarkWorkloadScaleStreaming(b *testing.B) { perf.BenchWorkloadScaleStreaming(b) }
