package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// smoke test's children re-execute it with childEnv set.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Args[1:]))
	}
	os.Exit(m.Run())
}

func TestBucket(t *testing.T) {
	for _, tc := range []struct {
		name  string
		stack []string // innermost first
		want  string
	}{
		{"lock under a conduit publish", []string{
			"runtime.futex", "runtime.futexwakeup", "runtime.semrelease1",
			"sync.runtime_Semrelease", "sync.(*Mutex).unlockSlow", "sync.(*Mutex).Unlock",
			"greenenvy/internal/sim.(*Conduit[go.shape.struct { F greenenvy/internal/netsim.Packet }]).publish",
			"greenenvy/internal/sim.(*ShardGroup).work",
		}, "sim.shard"},
		{"assist inside an allocation", []string{
			"runtime.scanobject", "runtime.gcDrainN", "runtime.gcAssistAlloc1", "runtime.gcAssistAlloc",
			"runtime.mallocgc", "runtime.newobject", "greenenvy/internal/tcp.(*Sender).transmit",
		}, "runtime.gc"},
		{"plain allocation", []string{
			"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.newobject",
			"greenenvy/internal/tcp.(*Receiver).sendAck",
		}, "runtime.alloc"},
		{"write barrier", []string{
			"runtime.wbBufFlush1", "runtime.wbBufFlush", "runtime.gcWriteBarrier2",
			"greenenvy/internal/sim.(*Engine).siftDown",
		}, "runtime.gc"},
		{"background mark worker", []string{
			"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack",
		}, "runtime.gc"},
		{"no module frame", []string{"runtime.futex", "runtime.notesleep", "runtime.stopm", "runtime.schedule"}, "runtime.other"},
		{"map access charged to its caller", []string{
			"runtime.mapaccess2", "greenenvy/internal/netsim.(*Switch).forward", "greenenvy/internal/sim.(*Engine).Run",
		}, "netsim"},
		{"timer", []string{"greenenvy/internal/sim.(*Timer).fire"}, "sim.engine"},
		{"root package", []string{"sort.Sort", "greenenvy.RunFig5"}, "harness"},
		{"registry", []string{"greenenvy/internal/registry.Lookup"}, "harness"},
		{"cache", []string{"crypto/sha256.block", "greenenvy/internal/cache.(*Store).Get"}, "cache"},
		{"instantiated generic", []string{"greenenvy/internal/testbed.RepeatParallel[go.shape.int].func1"}, "testbed"},
	} {
		if got := bucket(tc.stack); got != tc.want {
			t.Errorf("%s: bucket = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// burn keeps a CPU busy long enough for the profiler to sample it.
func burn(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

func TestProfileBucketsAddUp(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	burn(300 * time.Millisecond)
	pprof.StopCPUProfile()
	by, total, err := profileBuckets(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if total == 0 {
		t.Fatal("profile holds no samples")
	}
	var sum int64
	for _, ns := range by {
		sum += ns
	}
	if sum != total || len(by) != len(layers) {
		t.Fatalf("buckets add up to %d ns over %d layers, profile holds %d ns", sum, len(by), total)
	}
	if _, _, err := profileBuckets([]byte("not a profile")); err == nil {
		t.Error("garbage decoded without error")
	}
}

// benchmarkJSON is the repository's benchmark declaration.
type benchmarkJSON struct {
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkJSON
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decl.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end = %+v, benchmark declares %+v", decl.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(decl.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer = %+v, benchmark declares %+v", decl.PerLayer, perLayer)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, m := range append(append([]metric{}, endToEnd...), perLayer...) {
		if !valid.MatchString(m.Name) {
			t.Errorf("metric name %q", m.Name)
		}
	}
}

func TestReportPrintsDeclaredMetrics(t *testing.T) {
	b := &bench{w: workloads[0], seed: defaultSeed, attempted: 1}
	for _, decl := range [][]metric{endToEnd, perLayer} {
		var out bytes.Buffer
		if err := report(&out, b, 0, 1, decl, map[string]float64{}); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		var keys []string
		for k := range res {
			keys = append(keys, k)
		}
		if len(keys) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil {
			t.Errorf("result keys %v", keys)
		}
		var metrics map[string]value
		if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(metrics) != len(decl) {
			t.Errorf("printed %d metrics, declared %d", len(metrics), len(decl))
		}
		for _, m := range decl {
			if v, ok := metrics[m.Name]; !ok || v.Unit != m.Unit {
				t.Errorf("metric %s printed as %+v (present %v), want unit %s", m.Name, v, ok, m.Unit)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([...], n=4) in Python 3.
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 9, 3, 7}, [3]float64{2, 5, 8}},
	} {
		if got := quartiles(tc.xs); got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	wall := metric{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.1}
	parent := []float64{10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.02, 9.98}
	shift := func(d float64) []float64 {
		out := make([]float64, len(parent))
		for i, x := range parent {
			out[i] = x + d
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		change []float64
		want   string
	}{
		{"clearly faster", shift(-1), "better"},
		{"noise", shift(0.01), "no regression"},
		{"much slower", shift(2), "regression"},
		{"spread wider than the bound", []float64{5, 15, 6, 14, 5, 15, 6, 14, 5, 15}, "unresolved"},
	} {
		if got := compareMetric(wall, parent, tc.change).verdict; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestCompareReadsResultSets(t *testing.T) {
	run := func(seed uint64, wall float64) string {
		var out bytes.Buffer
		b := &bench{w: workloads[0], seed: seed, attempted: 1}
		if err := report(&out, b, 0, 1, endToEnd, map[string]float64{"wall_s": wall, "cpu_s": 1, "setup_s": 1, "peak_rss_mb": 1}); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	set, err := parseResultSet(strings.NewReader(run(1, 3) + "stray log line\n" + run(2, 4)))
	if err != nil {
		t.Fatal(err)
	}
	got := set[workloads[0].name]
	if got == nil || !reflect.DeepEqual(got.values["wall_s"], []float64{3, 4}) || got.attempted != 2 {
		t.Fatalf("parsed %+v", got)
	}
	var out bytes.Buffer
	compare(&out, set, set)
	if !strings.Contains(out.String(), "no regression") {
		t.Errorf("self-comparison:\n%s", out.String())
	}
}

// smokePins are the table digests of the tiny smoke sizes at the default
// seed.
var smokePins = map[string]string{
	"fig5-sweep":     "410a566457eac581c69b886930a3cc692ff7fe9a377e2ff67630fdc5f448c570",
	"incast-sharded": "86f6ba500369c749ffed838151d12119e2130525448bb104f7354d3589cd5f8f",
	"workload-scale": "3a07653912941be750db64f348a000e8dcdf66f106dd91eced9a8f6edde36ef6",
}

// TestSmoke runs every workload at a tiny size through the same gate as a
// real run, untraced and traced, in child processes.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	tiny := map[string]float64{"fig5-sweep": 0.0005, "incast-sharded": 0.005, "workload-scale": 0.0002}
	for _, w := range workloads {
		w.spec.Scale, w.pin = tiny[w.name], smokePins[w.name]
		b := &bench{exe: exe, dir: t.TempDir(), w: w, seed: defaultSeed}
		e2e := b.untraced(time.Nanosecond)
		layer := b.traced(time.Nanosecond)
		if b.failed != 0 || b.attempted == 0 {
			t.Errorf("%s: %d of %d failed", w.name, b.failed, b.attempted)
		}
		for _, m := range endToEnd {
			if e2e[m.Name] <= 0 {
				t.Errorf("%s: %s = %v", w.name, m.Name, e2e[m.Name])
			}
		}
		if layer["cache.warm_hit_ratio"] != 1 {
			t.Errorf("%s: warm hit ratio %v", w.name, layer["cache.warm_hit_ratio"])
		}
	}
}
