package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// compareMain compares two result sets, each the concatenated standard
// output of --trace 0 runs (the parent's first, the change's second). Runs
// pair up by their order within each workload, so alternate the two
// sides when collecting them.
func compareMain(args []string, out io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare <parent results> <change results>")
		return 2
	}
	a, err := readResultSet(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	b, err := readResultSet(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	compare(out, a, b)
	return 0
}

// resultSet holds, per workload, each end-to-end metric's values in run
// order, plus the failures counted.
type resultSet map[string]*workloadRuns

type workloadRuns struct {
	values            map[string][]float64
	attempted, failed int
}

func readResultSet(path string) (resultSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parseResultSet(f)
}

func parseResultSet(r io.Reader) (resultSet, error) {
	set := resultSet{}
	var hdr *runHeader
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 || line[0] != '{' {
			continue
		}
		var probe struct {
			Run       *runHeader       `json:"run"`
			Attempted int              `json:"attempted"`
			Failed    int              `json:"failed"`
			Metrics   map[string]value `json:"metrics"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return nil, fmt.Errorf("parse %q: %w", line, err)
		}
		switch {
		case probe.Run != nil:
			hdr = probe.Run
		case probe.Metrics != nil && hdr != nil:
			if hdr.Trace == 0 {
				wr := set[hdr.Workload]
				if wr == nil {
					wr = &workloadRuns{values: map[string][]float64{}}
					set[hdr.Workload] = wr
				}
				for name, v := range probe.Metrics {
					wr.values[name] = append(wr.values[name], v.Value)
				}
				wr.attempted += probe.Attempted
				wr.failed += probe.Failed
			}
			hdr = nil
		}
	}
	return set, sc.Err()
}

// comparison is one (workload, metric) row.
type comparison struct {
	a, b       [3]float64 // quartiles; [1] is the median
	pairs      int
	aWon, bWon int
	verdict    string
}

// compareMetric gives one (workload, metric) verdict. A spread (quartile
// distance over median) wider than the bound on either side leaves the
// metric unresolved unless every change run beats every parent run. A
// gain needs the change to win at least 9/10 of the pairs and a median
// gap wider than the parent's interquartile range. A regression is a
// median worse than the parent's by more than the bound.
func compareMetric(m metric, a, b []float64) comparison {
	c := comparison{a: quartiles(a), b: quartiles(b), pairs: min(len(a), len(b))}
	better := func(x, y float64) bool { // x reads better than y
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	for i := 0; i < c.pairs; i++ {
		switch {
		case better(a[i], b[i]):
			c.aWon++
		case better(b[i], a[i]):
			c.bWon++
		}
	}
	spread := func(q [3]float64) float64 { return (q[2] - q[0]) / math.Abs(q[1]) }
	worstB, bestA := b[0], a[0]
	for _, x := range b {
		if better(worstB, x) {
			worstB = x
		}
	}
	for _, x := range a {
		if better(x, bestA) {
			bestA = x
		}
	}
	gap := c.b[1] - c.a[1]
	if m.Better == "higher" {
		gap = -gap
	}
	switch {
	case spread(c.a) > m.Bound || spread(c.b) > m.Bound:
		c.verdict = "unresolved"
		if better(worstB, bestA) {
			c.verdict = "better (every run)"
		}
	case 10*c.bWon >= 9*c.pairs && -gap > c.a[2]-c.a[0]:
		c.verdict = "better"
	case gap > m.Bound*math.Abs(c.a[1]):
		c.verdict = "regression"
	default:
		c.verdict = "no regression"
	}
	return c
}

func compare(out io.Writer, a, b resultSet) {
	var names []string
	for w := range a {
		if b[w] != nil {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%-15s %-12s %-33s %-33s %5s %6s %6s  %s\n",
		"workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "pairs", "parent", "change", "verdict")
	for _, w := range names {
		wa, wb := a[w], b[w]
		for _, m := range endToEnd {
			va, vb := wa.values[m.Name], wb.values[m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			c := compareMetric(m, va, vb)
			q := func(x [3]float64) string { return fmt.Sprintf("%.4g [%.4g, %.4g] %s", x[1], x[0], x[2], m.Unit) }
			share := func(n int) string { return fmt.Sprintf("%.0f%%", 100*float64(n)/float64(max(c.pairs, 1))) }
			fmt.Fprintf(out, "%-15s %-12s %-33s %-33s %5d %6s %6s  %s\n",
				w, m.Name, q(c.a), q(c.b), c.pairs, share(c.aWon), share(c.bWon), c.verdict)
		}
		fmt.Fprintf(out, "%-15s %-12s %d/%d failed %29s %d/%d failed\n", w, "failures",
			wa.failed, wa.attempted, "", wb.failed, wb.attempted)
	}
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(xs, n=4) does (the "exclusive" method).
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) < 2 {
		v := math.NaN()
		if len(s) == 1 {
			v = s[0]
		}
		return [3]float64{v, v, v}
	}
	var q [3]float64
	m := len(s) + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}
