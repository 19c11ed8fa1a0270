package registry

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"greenenvy/internal/iperf"
	"greenenvy/internal/sim"
	"greenenvy/internal/testbed"
)

// repSeeds returns the per-repetition seeds repeatCached hands out for o,
// by index.
func repSeeds(t *testing.T, o Options) []uint64 {
	t.Helper()
	seeds, err := repeatCached(o, "test", "seeds", func(seed uint64) (uint64, error) { return seed, nil })
	if err != nil {
		t.Fatal(err)
	}
	return seeds
}

func TestRepeatSeedsIndependentOfWorkers(t *testing.T) {
	serial := repSeeds(t, Options{Reps: 6, Seed: 7, Workers: 1})
	parallel := repSeeds(t, Options{Reps: 6, Seed: 7, Workers: 8})
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("per-rep seeds depend on worker count: %v vs %v", serial, parallel)
	}
	seen := map[uint64]bool{}
	for _, s := range serial {
		if seen[s] {
			t.Fatalf("repetition seeds repeat: %v", serial)
		}
		seen[s] = true
	}
}

func TestRepeatRunsMatchesAcrossWorkers(t *testing.T) {
	run := func(workers int) []testbed.RunResult {
		t.Helper()
		runs, err := RepeatRuns(Options{Reps: 4, Seed: 42, Workers: workers}, "test/cubic", func(seed uint64) (*testbed.Testbed, error) {
			tb := testbed.New(testbed.Options{Seed: seed})
			_, err := tb.AddFlow(0, iperf.Spec{Bytes: 62_500_000, CCA: "cubic"})
			return tb, err
		}, 10*sim.Second)
		if err != nil {
			t.Fatal(err)
		}
		return runs
	}
	if serial, parallel := run(1), run(8); !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel results differ from serial:\n%+v\nvs\n%+v", parallel, serial)
	}
}

// TestRepeatErrorNamesLowestFailure: when several repetitions fail, the
// error names the lowest-indexed one that ran.
func TestRepeatErrorNamesLowestFailure(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		o := Options{Reps: 8, Seed: 3, Workers: workers}
		rep := map[uint64]int{}
		for i, s := range repSeeds(t, o) {
			rep[s] = i
		}
		var mu sync.Mutex
		lowest := o.Reps
		_, err := repeatCached(o, "test", "fail", func(seed uint64) (int, error) {
			i := rep[seed]
			if i != 2 && i != 5 {
				return i, nil
			}
			if i == 2 {
				// Fail only after rep 5 has, so the pool must prefer
				// the lower index over the earlier error.
				time.Sleep(10 * time.Millisecond)
			}
			mu.Lock()
			lowest = min(lowest, i)
			mu.Unlock()
			return 0, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers %d: err = %v, want wrapped boom", workers, err)
		}
		if want := fmt.Sprintf("repetition %d:", lowest); !strings.Contains(err.Error(), want) {
			t.Fatalf("workers %d: err %q does not name the lowest failing repetition (%s)", workers, err, want)
		}
	}
}

func TestRepeatFailureStopsClaims(t *testing.T) {
	boom := errors.New("boom")
	o := Options{Reps: 64, Seed: 1, Workers: 4}
	first := repSeeds(t, o)[0]
	var calls atomic.Int32
	_, err := repeatCached(o, "test", "stop", func(seed uint64) (int, error) {
		calls.Add(1)
		if seed == first {
			return 0, boom
		}
		// Keep the other workers busy long enough for the failure to be
		// observed before the pool drains all 64 indices.
		time.Sleep(2 * time.Millisecond)
		return 0, nil
	})
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "repetition 0:") {
		t.Fatalf("err = %v, want repetition 0's boom", err)
	}
	if n := calls.Load(); n >= 64 {
		t.Fatalf("all %d repetitions ran; failure did not stop the pool", n)
	}
}

func TestForEachCoversAllIndicesOnce(t *testing.T) {
	const n = 100
	var hits [n]atomic.Int32
	if err := ForEach(n, 7, func(i int) error {
		hits[i].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Fatalf("index %d ran %d times", i, got)
		}
	}
}
