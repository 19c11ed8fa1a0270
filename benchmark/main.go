// Command benchmark times the simulator end to end on three registry
// workloads and splits a traced run of each across the repository's
// modules. See README.md for the workloads, metrics and how to run it.
//
// Usage, from the repository root:
//
//	bash benchmark/run.sh --workload fig5-sweep --seed 1 --seconds 30 --trace 0
//	bash benchmark/run.sh compare parent.log change.log
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Args[1:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

// setupSamples is how many set-up times a --trace 0 run takes at least;
// set-up-only children top up what the timed children give.
const setupSamples = 31

func benchMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", defaultSeed, "seed the experiment's inputs are drawn from (≥ 1)")
	seconds := fs.Int("seconds", 30, "how long to keep starting timed calls")
	trace := fs.Int("trace", 0, "0: end-to-end metrics from untraced calls; 1: per-layer metrics from a traced call")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seed == 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "benchmark: need --workload (%s), --seed ≥ 1, --seconds ≥ 1 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	work := buildDir()
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	dir, err := os.MkdirTemp(work, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	b := &bench{exe: exe, dir: dir, w: w, seed: *seed}
	budget := time.Duration(*seconds) * time.Second
	decl, values := endToEnd, map[string]float64(nil)
	b.stealShare = stealDuring(func() {
		if *trace == 0 {
			values = b.untraced(budget)
		} else {
			decl, values = perLayer, b.traced(budget)
		}
	})
	if err := report(out, b, *trace, *seconds, decl, values); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if b.failed > 0 {
		return 1
	}
	return 0
}

// buildDir is where run.sh builds the benchmark; runs keep their scratch
// caches there too.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

func workloadNames() []string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return ns
}

// bench runs one workload's children and keeps the correctness account.
type bench struct {
	exe, dir  string
	w         workload
	seed      uint64
	attempted int
	failed    int
	setups    []float64
	caches    int
	// stealShare, calls and undisturbed are reported in the run header;
	// see runHeader.
	stealShare         float64
	calls, undisturbed int
}

// check records one correctness check.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.failed++
		fmt.Fprintf(os.Stderr, "benchmark: FAIL %s: "+format+"\n", append([]any{b.w.name}, args...)...)
	}
}

// call runs one child process to completion and records its set-up time.
func (b *bench) call(mode, cacheDir string) (childResult, error) {
	var r childResult
	spec, err := json.Marshal(b.w.spec)
	if err != nil {
		return r, err
	}
	cmd := exec.Command(b.exe, "-spec", string(spec), "-seed", fmt.Sprint(b.seed), "-mode", mode, "-cache", cacheDir)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	// A child must not outlive a benchmark that is killed mid-run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	start := time.Now()
	steal := stealDuring(func() { err = cmd.Run() })
	if err != nil {
		return r, fmt.Errorf("%s child: %w", mode, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return r, fmt.Errorf("%s child output: %w", mode, err)
	}
	if r.Err != "" {
		return r, fmt.Errorf("%s child: %s", mode, r.Err)
	}
	b.setups = append(b.setups, time.Unix(0, r.CallStart).Sub(start).Seconds())
	r.steal = steal
	return r, nil
}

// cold makes one call against a fresh, empty cache and checks its table
// pin and cache accounting. It returns the cache directory for a replay.
func (b *bench) cold(mode string) (childResult, string, bool) {
	b.caches++
	dir := filepath.Join(b.dir, fmt.Sprintf("cache-%d", b.caches))
	r, err := b.call(mode, dir)
	b.attempted += b.w.runs()
	if err != nil {
		b.failed += b.w.runs()
		fmt.Fprintf(os.Stderr, "benchmark: FAIL %s: %v\n", b.w.name, err)
		return r, dir, false
	}
	if b.seed == defaultSeed {
		sum := sha256.Sum256([]byte(r.Table))
		got := hex.EncodeToString(sum[:])
		b.check(got == b.w.pin, "table sha256 %s, pinned %s", got, b.w.pin)
	}
	b.check(r.Hits == 0 && r.Misses == uint64(b.w.runs()),
		"cold pass hits=%d misses=%d, want 0 and %d", r.Hits, r.Misses, b.w.runs())
	if mode == modeTraced {
		var sum int64
		for _, ns := range r.Layers {
			sum += ns
		}
		b.check(sum == r.ProfileNS && len(r.Layers) == len(layers),
			"layer buckets add up to %d ns over %d layers, profile holds %d ns", sum, len(r.Layers), r.ProfileNS)
	}
	return r, dir, true
}

// warm replays a cold call from its cache in a fresh process: the table
// must be byte-identical and every repetition a hit.
func (b *bench) warm(dir string, cold childResult) (childResult, bool) {
	defer os.RemoveAll(dir)
	r, err := b.call(modeWarm, dir)
	if err != nil {
		b.check(false, "warm replay: %v", err)
		return r, false
	}
	b.check(r.Table == cold.Table, "warm replay table differs from the cold pass")
	b.check(r.Hits == uint64(b.w.runs()) && r.Misses == 0,
		"warm replay hits=%d misses=%d, want %d and 0", r.Hits, r.Misses, b.w.runs())
	return r, true
}

// loop repeats f while another repetition, as long as the longest so far,
// still ends within the budget. f always runs at least once.
func loop(budget time.Duration, f func()) {
	start := time.Now()
	var longest time.Duration
	for {
		t := time.Now()
		f()
		longest = max(longest, time.Since(t))
		if time.Since(start)+longest > budget {
			return
		}
	}
}

// maxSteal is the share of the machine's CPU time the hypervisor may take
// during a call before the call counts as disturbed. On a shared host a
// steal episode takes whole cores away for minutes and stretches wall
// time by half; cpu_s hardly moves.
const maxSteal = 0.05

// untraced measures the end-to-end metrics: medians over the cold calls
// that the hypervisor did not disturb (over all of them if it disturbed
// every one), each call followed by a warm replay that checks it.
func (b *bench) untraced(budget time.Duration) map[string]float64 {
	var all, undisturbed []childResult
	loop(budget, func() {
		r, dir, ok := b.cold(modeCold)
		if !ok {
			os.RemoveAll(dir)
			return
		}
		all = append(all, r)
		if r.steal < maxSteal {
			undisturbed = append(undisturbed, r)
		}
		b.warm(dir, r)
	})
	b.calls, b.undisturbed = len(all), len(undisturbed)
	if len(undisturbed) == 0 {
		undisturbed = all
	}
	var wall, cpu, rss []float64
	for _, r := range undisturbed {
		wall, cpu, rss = append(wall, r.WallS), append(cpu, r.CPUS), append(rss, r.PeakRSSMB)
	}
	for len(b.setups) < setupSamples {
		b.caches++
		dir := filepath.Join(b.dir, fmt.Sprintf("cache-%d", b.caches))
		_, err := b.call(modeSetup, dir)
		os.RemoveAll(dir)
		b.check(err == nil, "set-up child: %v", err)
		if err != nil {
			break
		}
	}
	return map[string]float64{
		"wall_s":      median(wall),
		"cpu_s":       median(cpu),
		"setup_s":     median(b.setups),
		"peak_rss_mb": median(rss),
	}
}

// traced measures the per-layer metrics: pairs of an untraced and a
// traced cold call, the traced one replayed warm. Layer, runtime, cache
// and result counts are means over the traced calls; times are medians.
func (b *bench) traced(budget time.Duration) map[string]float64 {
	var plain, traced, render, warmS []float64
	sums := map[string]float64{}
	n, nWarm := 0, 0
	loop(budget, func() {
		if u, dir, ok := b.cold(modeCold); ok {
			plain = append(plain, u.WallS)
			os.RemoveAll(dir)
		}
		t, dir, ok := b.cold(modeTraced)
		if !ok {
			os.RemoveAll(dir)
			return
		}
		n++
		traced, render = append(traced, t.WallS), append(render, t.RenderS)
		for l, ns := range t.Layers {
			sums[l+".cpu_s"] += float64(ns) / 1e9
		}
		sums["profile.cpu_s"] += float64(t.ProfileNS) / 1e9
		for k, v := range t.Runtime {
			sums[k] += v
		}
		for k, v := range t.Counts {
			sums[k] += v
		}
		sums["cache.misses"] += float64(t.Misses)
		sums["cache.bytes_written"] += float64(t.BytesWritten)
		if w, ok := b.warm(dir, t); ok {
			nWarm++
			warmS = append(warmS, w.WallS)
			sums["cache.hits"] += float64(w.Hits)
			sums["cache.warm_hit_ratio"] += float64(w.Hits) / float64(b.w.runs())
		}
	})
	values := map[string]float64{}
	for k, v := range sums {
		d := n
		if k == "cache.hits" || k == "cache.warm_hit_ratio" {
			d = nWarm
		}
		values[k] = v / float64(max(d, 1))
	}
	values["cache.warm_s"] = median(warmS)
	values["plot.render_s"] = median(render)
	if p := median(plain); p > 0 && len(traced) > 0 {
		values["trace.overhead_frac"] = median(traced)/p - 1
	}
	return values
}

// fingerprint identifies the machine and build a result set came from.
type fingerprint struct {
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	CPUModel    string `json:"cpu_model"`
	GoVersion   string `json:"go_version"`
	VCSRevision string `json:"vcs_revision"`
	VCSModified string `json:"vcs_modified"`
}

func machine() fingerprint {
	fp := fingerprint{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", VCSRevision: "unknown", VCSModified: "unknown",
	}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				fp.VCSRevision = s.Value
			case "vcs.modified":
				fp.VCSModified = s.Value
			}
		}
	}
	return fp
}

// stealDuring runs f and returns the share of the machine's CPU time the
// hypervisor stole meanwhile, or -1 where /proc/stat is unreadable.
func stealDuring(f func()) float64 {
	s0, t0, ok0 := cpuSteal()
	f()
	s1, t1, ok1 := cpuSteal()
	if !ok0 || !ok1 || t1 <= t0 {
		return -1
	}
	return float64(s1-s0) / float64(t1-t0)
}

// cpuSteal reads the machine-wide steal and total CPU ticks from the
// first line of /proc/stat: user nice system idle iowait irq softirq
// steal, where guest time is already part of user.
func cpuSteal() (steal, total uint64, ok bool) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// runHeader precedes each run's result line; compare mode reads both.
type runHeader struct {
	Workload    string      `json:"workload"`
	Seed        uint64      `json:"seed"`
	Trace       int         `json:"trace"`
	Seconds     int         `json:"seconds"`
	Options     runOptions  `json:"options"`
	Fingerprint fingerprint `json:"fingerprint"`
	// StealShare is the share of the machine's CPU time the hypervisor
	// took while the run measured, or -1 where /proc/stat is unreadable.
	StealShare float64 `json:"steal_share"`
	// Calls and Undisturbed count a --trace 0 run's cold calls and those
	// its medians come from.
	Calls       int `json:"calls,omitempty"`
	Undisturbed int `json:"undisturbed,omitempty"`
}

type runOptions struct {
	Experiment string  `json:"experiment"`
	Scale      float64 `json:"scale"`
	Reps       int     `json:"reps"`
	Workers    int     `json:"workers"`
	Shards     int     `json:"shards"`
	Seed       uint64  `json:"seed"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report prints the run header, one line per metric, and the result as
// the last line.
func report(out io.Writer, b *bench, trace, seconds int, decl []metric, values map[string]float64) error {
	o := b.w.spec.options(b.seed, "")
	hdr, err := json.Marshal(map[string]runHeader{"run": {
		Workload: b.w.name, Seed: b.seed, Trace: trace, Seconds: seconds,
		Options: runOptions{
			Experiment: b.w.spec.Experiment, Scale: o.Scale, Reps: o.Reps,
			Workers: o.Workers, Shards: o.Shards, Seed: o.Seed,
		},
		Fingerprint: machine(),
		StealShare:  b.stealShare,
		Calls:       b.calls,
		Undisturbed: b.undisturbed,
	}})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(hdr))
	res := result{Correct: b.failed == 0 && b.attempted > 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]value{}}
	for _, m := range decl {
		v := values[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[m.Name] = value{Value: v, Unit: m.Unit}
		fmt.Fprintf(out, "%-24s %16.6f %s\n", m.Name, v, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	return nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
