package registry

import (
	"fmt"
	"sync"
	"sync/atomic"

	"greenenvy/internal/cache"
	"greenenvy/internal/sim"
	"greenenvy/internal/stats"
	"greenenvy/internal/testbed"
)

// This file is the shared run harness behind the registered experiments.
// RepeatRuns owns repetition fan-out (ForEach, the one worker pool),
// derived seeds, and persistent-cache threading (Cached, the one cache-key
// site); RunCell owns the per-cell metric aggregation that every figure
// used to hand-roll: extract one or more scalars from each repetition's
// RunResult in run order and summarize them with stats.MeanStd.
// Experiments keep only their scenario construction and result
// interpretation.

// BuildFunc constructs one repetition's testbed from its derived seed. It
// must not capture state shared across repetitions; two call sites with the
// same cell id and seed must build identical testbeds (see RepeatRuns).
type BuildFunc = func(seed uint64) (*testbed.Testbed, error)

// Metric extracts one scalar from a repetition's bracketed measurement.
type Metric = func(testbed.RunResult) float64

// Shared metric extractors.

// SenderJoules is the total energy across all sender hosts.
func SenderJoules(r testbed.RunResult) float64 { return r.TotalSenderJ }

// RunSeconds is the experiment's wall-clock (simulated) duration.
func RunSeconds(r testbed.RunResult) float64 { return r.Duration.Seconds() }

// EventsFired is the discrete-event count of the run, aggregated across
// every partition engine on the sharded path (never just shard 0's).
func EventsFired(r testbed.RunResult) float64 { return float64(r.EventsFired) }

// FirstSenderWatts is host 0's average power over the run.
func FirstSenderWatts(r testbed.RunResult) float64 {
	return r.SenderEnergyJ[0] / r.Duration.Seconds()
}

// Agg summarizes one metric over a cell's repetitions.
type Agg struct{ Mean, Std float64 }

// RunCell runs one experiment cell — Reps repetitions fanned out over
// Options.Workers with per-repetition persistent caching — and aggregates
// each requested metric over the repetitions in run order.
func RunCell(o Options, id string, build BuildFunc, deadline sim.Duration, metrics ...Metric) ([]Agg, error) {
	runs, err := RepeatRuns(o, id, build, deadline)
	if err != nil {
		return nil, err
	}
	out := make([]Agg, len(metrics))
	for i, m := range metrics {
		vals := make([]float64, len(runs))
		for j, r := range runs {
			vals[j] = m(r)
		}
		out[i].Mean, out[i].Std = stats.MeanStd(vals)
	}
	return out, nil
}

// RepeatRuns centralizes the repetition loop with derived seeds, fanned out
// over Options.Workers goroutines. Each repetition builds and runs its own
// testbed, so build must not capture state shared across repetitions.
//
// id names the experiment cell for the persistent cache and must encode
// every result-affecting parameter that the per-repetition seed does not
// already capture (transfer bytes, rates, loads, topology, CCA, MTU, ...).
// Two call sites with the same id and seed MUST build identical testbeds.
func RepeatRuns(o Options, id string, build BuildFunc, deadline sim.Duration) ([]testbed.RunResult, error) {
	return repeatCached(o, "run", id, func(seed uint64) (testbed.RunResult, error) {
		tb, err := build(seed)
		if err != nil {
			return testbed.RunResult{}, err
		}
		return tb.Run(deadline)
	})
}

// RepeatStreamRuns is RepeatRuns for the streaming churn path: each
// repetition produces an O(1)-size testbed.StreamResult instead of
// retained per-flow reports. Stream runs cache under the "stream" key kind
// so their gob shape evolves independently of RunResult's.
func RepeatStreamRuns(o Options, id string, run func(seed uint64) (testbed.StreamResult, error)) ([]testbed.StreamResult, error) {
	return repeatCached(o, "stream", id, run)
}

// repeatCached is the one repetition loop behind RepeatRuns and
// RepeatStreamRuns: Options.Reps repetitions, the i-th seeded by
// Split(i) of an RNG at Options.Seed, fanned out over Options.Workers and
// each served through Cached. Results are placed by repetition index; an
// error names the lowest failing repetition.
func repeatCached[R any](o Options, kind, id string, run func(seed uint64) (R, error)) ([]R, error) {
	root := sim.NewRNG(o.Seed)
	out := make([]R, o.Reps)
	err := ForEach(o.Reps, o.Workers, func(rep int) error {
		r, err := Cached(o, kind, id, root.Split(uint64(rep)).Uint64(), run)
		if err != nil {
			return fmt.Errorf("repetition %d: %w", rep, err)
		}
		out[rep] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Cached returns run(seed), served from the persistent cache under (kind,
// id, seed) when present and stored there once computed. It is the only
// place experiments mint cache keys: kind names the cached value's type
// (so gob shapes evolve independently) and id must encode every
// result-affecting parameter that seed does not (see RepeatRuns).
func Cached[R any](o Options, kind, id string, seed uint64, run func(seed uint64) (R, error)) (R, error) {
	store := o.CacheStore()
	key := cache.NewKey(kind, id, seed)
	var cached R
	if store.Get(key, &cached) {
		return cached, nil
	}
	r, err := run(seed)
	if err != nil {
		return r, err
	}
	// Best-effort: a full disk or unwritable store must not fail the
	// experiment, only future warm starts.
	_ = store.Put(key, r)
	return r, nil
}

// ForEach runs fn(0) … fn(n-1) across a pool of `workers` goroutines and
// waits for completion. Indices are claimed in order but may complete out of
// order; fn must write its result into a caller-owned slot keyed by index so
// assembled output does not depend on scheduling. The first error stops the
// pool from claiming further indices (work already started still finishes)
// and is returned; when several indices fail, the lowest one's error wins so
// the error path is as deterministic as the pool allows. workers <= 1 runs
// serially on the calling goroutine with fail-fast semantics.
func ForEach(n, workers int, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
		mu     sync.Mutex
	)
	errIdx := -1
	var firstErr error
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				if err := fn(i); err != nil {
					failed.Store(true)
					mu.Lock()
					if errIdx < 0 || i < errIdx {
						errIdx, firstErr = i, err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}
