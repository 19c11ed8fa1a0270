package perf

import "testing"

// TestDumbbellTransferAllocsFlat pins the packet lifecycle: a whole
// dumbbell transfer allocates per flow and per run, not per packet, so
// quadrupling the bytes (and the packets) leaves the allocation count
// nearly unchanged. The slack covers the run's O(log duration) growth —
// measurement series that double as the run lengthens.
func TestDumbbellTransferAllocsFlat(t *testing.T) {
	const slack = 64
	allocs := func(bytes uint64) (float64, uint64) {
		var pkts uint64
		n := testing.AllocsPerRun(1, func() {
			var err error
			if pkts, err = DumbbellTransfer(bytes); err != nil {
				t.Fatal(err)
			}
		})
		return n, pkts
	}
	small, smallPkts := allocs(25_000_000)
	large, largePkts := allocs(100_000_000)
	if largePkts < 3*smallPkts {
		t.Fatalf("packets %d vs %d: the larger transfer should carry ~4x the packets", largePkts, smallPkts)
	}
	if d := large - small; d < -slack || d > slack {
		t.Fatalf("allocations grow with packets: %.0f at 25 MB (%d pkts) vs %.0f at 100 MB (%d pkts), want within %d",
			small, smallPkts, large, largePkts, slack)
	}
	t.Logf("allocations: %.0f at 25 MB (%d pkts), %.0f at 100 MB (%d pkts)", small, smallPkts, large, largePkts)
}
