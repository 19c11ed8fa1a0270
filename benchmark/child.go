package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"

	"greenenvy"
)

// childEnv marks a process started by the benchmark to make one
// experiment call. Every timed call gets a fresh process: the registry
// memoizes sweeps in-process, and peak RSS would carry over.
const childEnv = "GREENENVY_BENCH_CHILD"

// Child modes.
const (
	modeSetup  = "setup"  // stop at the experiment call: a set-up sample
	modeCold   = "cold"   // untraced call against an empty cache
	modeTraced = "traced" // the same call under a CPU profile
	modeWarm   = "warm"   // replay from the cache a cold call filled
)

// childResult is what one child reports, as the last line of its stdout.
type childResult struct {
	// CallStart is the wall clock, in Unix nanoseconds, just before the
	// experiment call; the parent subtracts the instant it started the
	// process to get the set-up time.
	CallStart int64   `json:"call_start"`
	Err       string  `json:"err,omitempty"`
	WallS     float64 `json:"wall_s"`
	CPUS      float64 `json:"cpu_s"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
	Table     string  `json:"table"`
	RenderS   float64 `json:"render_s"`

	Hits         uint64 `json:"hits"`
	Misses       uint64 `json:"misses"`
	BytesWritten uint64 `json:"bytes_written"`

	Runtime map[string]float64 `json:"runtime,omitempty"`
	Counts  map[string]float64 `json:"counts,omitempty"`
	// Layers holds CPU nanoseconds per layer, and ProfileNS the profile's
	// total, in traced mode.
	Layers    map[string]int64 `json:"layers,omitempty"`
	ProfileNS int64            `json:"profile_ns,omitempty"`

	// steal is the parent's measure of hypervisor steal while the child
	// ran; see stealDuring.
	steal float64
}

// runtimeSamples are the runtime/metrics read around the call, keyed by
// the per-layer metric each feeds.
var runtimeSamples = map[string]string{
	"runtime.alloc_bytes":   "/gc/heap/allocs:bytes",
	"runtime.alloc_objects": "/gc/heap/allocs:objects",
	"runtime.gc_cycles":     "/gc/cycles/total:gc-cycles",
	"runtime.gc_cpu_s":      "/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() map[string]float64 {
	names := make([]string, 0, len(runtimeSamples))
	ss := make([]metrics.Sample, 0, len(runtimeSamples))
	for name, key := range runtimeSamples {
		names = append(names, name)
		ss = append(ss, metrics.Sample{Name: key})
	}
	metrics.Read(ss)
	out := make(map[string]float64, len(ss))
	for i, s := range ss {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[names[i]] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[names[i]] = s.Value.Float64()
		}
	}
	return out
}

func cpuSeconds() (float64, float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0, fmt.Errorf("getrusage: %w", err)
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	return cpu, float64(ru.Maxrss) / 1024, nil // Linux reports Maxrss in KiB
}

// childMain makes one experiment call and prints a childResult.
func childMain(args []string) int {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	specJSON := fs.String("spec", "", "workload spec as JSON")
	seed := fs.Uint64("seed", defaultSeed, "seed")
	mode := fs.String("mode", modeCold, "setup, cold, traced or warm")
	cacheDir := fs.String("cache", "", "cache directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	res, err := child(*specJSON, *seed, *mode, *cacheDir)
	if err != nil {
		res.Err = err.Error()
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "child:", jerr)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func child(specJSON string, seed uint64, mode, cacheDir string) (childResult, error) {
	var res childResult
	var s spec
	if err := json.Unmarshal([]byte(specJSON), &s); err != nil {
		return res, fmt.Errorf("spec: %w", err)
	}
	e, ok := greenenvy.LookupExperiment(s.Experiment)
	if !ok {
		return res, fmt.Errorf("unknown experiment %q", s.Experiment)
	}
	o, err := s.options(seed, cacheDir).WithDefaults()
	if err != nil {
		return res, err
	}
	if o.CacheStore() == nil {
		return res, fmt.Errorf("cannot open cache %s", cacheDir)
	}
	start := time.Now()
	res.CallStart = start.UnixNano()
	if mode == modeSetup {
		return res, nil
	}

	var prof bytes.Buffer
	if mode == modeTraced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return res, err
		}
	}
	rt0 := readRuntime()
	cpu0, _, err := cpuSeconds()
	if err != nil {
		return res, err
	}
	start = time.Now()
	r, runErr := e.Run(o)
	res.WallS = time.Since(start).Seconds()
	cpu1, rss, err := cpuSeconds()
	if err != nil {
		return res, err
	}
	rt1 := readRuntime()
	if mode == modeTraced {
		pprof.StopCPUProfile()
	}
	res.CPUS, res.PeakRSSMB = cpu1-cpu0, rss
	res.Runtime = map[string]float64{}
	for k, v := range rt1 {
		res.Runtime[k] = v - rt0[k]
	}
	st := greenenvy.CacheStatsFor(cacheDir)
	res.Hits, res.Misses, res.BytesWritten = st.Hits, st.Misses, st.BytesWritten
	if runErr != nil {
		return res, fmt.Errorf("%s: %w", s.Experiment, runErr)
	}

	start = time.Now()
	res.Table = r.Table()
	_, svgErr := r.SVG()
	res.RenderS = time.Since(start).Seconds()
	if res.Counts, err = resultCounts(r); err != nil {
		return res, err
	}
	if mode == modeTraced {
		if res.Layers, res.ProfileNS, err = profileBuckets(prof.Bytes()); err != nil {
			return res, err
		}
	}
	if svgErr != nil {
		return res, fmt.Errorf("svg: %w", svgErr)
	}
	return res, nil
}
