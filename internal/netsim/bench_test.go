package netsim_test

// Packet-path microbenchmarks. The bodies live in internal/perf, shared with
// the other packages' wrappers; these expose them to `go test -bench`.

import (
	"testing"

	"greenenvy/internal/perf"
)

func BenchmarkLinkDataPacket(b *testing.B) { perf.BenchLinkDataPacket(b) }

func BenchmarkLinkPureAck(b *testing.B) { perf.BenchLinkPureAck(b) }

func BenchmarkDropTailQueue(b *testing.B) { perf.BenchDropTailQueue(b) }

func BenchmarkDRRQueue(b *testing.B) { perf.BenchDRRQueue(b) }

func BenchmarkDumbbellTransfer(b *testing.B) { perf.BenchDumbbellTransfer(b) }

func BenchmarkFatTreeIncast(b *testing.B) { perf.BenchFatTreeIncast(b) }

func BenchmarkShardedIncastMono(b *testing.B) { perf.BenchShardedIncastMono(b) }

func BenchmarkShardedIncastW1(b *testing.B) { perf.BenchShardedIncastW1(b) }

func BenchmarkShardedIncastW2(b *testing.B) { perf.BenchShardedIncastW2(b) }

func BenchmarkShardedIncastW4(b *testing.B) { perf.BenchShardedIncastW4(b) }

func BenchmarkShardedIncastW8(b *testing.B) { perf.BenchShardedIncastW8(b) }
