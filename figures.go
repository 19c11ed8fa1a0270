package greenenvy

import (
	"fmt"
	"strings"

	"greenenvy/internal/cca"
	"greenenvy/internal/plot"
	"greenenvy/internal/stats"
)

// This file renders each experiment result as a self-contained SVG figure
// mirroring the paper's plots. greenbench's -svg flag writes them to disk.
// Results whose natural output is a report rather than a chart render their
// table as a text panel, so every registered experiment satisfies Result.

// textPanel renders a table's first line as an SVG panel title and the
// remaining lines as monospace text.
func textPanel(table string) (string, error) {
	lines := strings.Split(strings.TrimRight(table, "\n"), "\n")
	return plot.TextPanel(lines[0], lines[1:])
}

// SVG renders Figure 2: power vs throughput with the tangent line.
func (r Fig2Result) SVG() (string, error) {
	smooth := plot.Series{Name: "sending smoothly"}
	tangent := plot.Series{Name: "full speed, then idle"}
	for _, p := range r.Points {
		smooth.X = append(smooth.X, p.Gbps)
		smooth.Y = append(smooth.Y, p.SmoothW)
		tangent.X = append(tangent.X, p.Gbps)
		tangent.Y = append(tangent.Y, p.TangentW)
	}
	return plot.Chart{
		Title:  "Figure 2 — sender power vs throughput (CUBIC)",
		XLabel: "average throughput (Gbps)",
		YLabel: "average power (W)",
		Kind:   "line",
		Series: []plot.Series{smooth, tangent},
	}.SVG()
}

// SVG renders Figure 3: the two throughput traces on one plane. At very
// small scales a transfer can finish before the first 10 ms throughput
// sample, leaving a trace empty; empty series are dropped, and with no
// samples at all the (header-only) table renders as a text panel.
func (r Fig3Result) SVG() (string, error) {
	mk := func(samples []Fig3Sample, idx int, name string) plot.Series {
		s := plot.Series{Name: name}
		for _, p := range samples {
			s.X = append(s.X, p.Seconds)
			s.Y = append(s.Y, p.Gbps[idx])
		}
		return s
	}
	var series []plot.Series
	for _, s := range []plot.Series{
		mk(r.Fair, 0, "fair flow 1"),
		mk(r.Fair, 1, "fair flow 2"),
		mk(r.Serial, 0, "serial flow 1"),
		mk(r.Serial, 1, "serial flow 2"),
	} {
		if len(s.X) > 0 {
			series = append(series, s)
		}
	}
	if len(series) == 0 {
		return textPanel(r.Table())
	}
	return plot.Chart{
		Title:  "Figure 3 — throughput over time (fair vs serial)",
		XLabel: "time (s)",
		YLabel: "throughput (Gbps)",
		Kind:   "line",
		Series: series,
	}.SVG()
}

// SVG renders Figure 4: power vs bitrate per load level.
func (r Fig4Result) SVG() (string, error) {
	byLoad := map[float64]*plot.Series{}
	var order []float64
	for _, p := range r.Points {
		s, ok := byLoad[p.Load]
		if !ok {
			s = &plot.Series{Name: fmt.Sprintf("%.0f%% load", p.Load*100)}
			byLoad[p.Load] = s
			order = append(order, p.Load)
		}
		s.X = append(s.X, p.Gbps)
		s.Y = append(s.Y, p.MeanW)
	}
	var series []plot.Series
	for _, l := range order {
		plot.SortSeriesByX(byLoad[l])
		series = append(series, *byLoad[l])
	}
	return plot.Chart{
		Title:  "Figure 4 — sender power vs bitrate under background load",
		XLabel: "bitrate (Gbps)",
		YLabel: "average power (W)",
		Kind:   "line",
		Series: series,
	}.SVG()
}

// sweepBars builds the grouped-bar chart shared by Figures 5 and 6.
func sweepBars(sw *SweepResult, title, ylabel string, value func(*SweepCell) float64) (string, error) {
	names := cca.PaperOrder()
	var series []plot.Series
	for _, mtu := range SweepMTUs {
		s := plot.Series{Name: fmt.Sprintf("MTU %d", mtu)}
		for i, name := range names {
			s.X = append(s.X, float64(i))
			s.Y = append(s.Y, value(sw.Cell(name, mtu)))
		}
		series = append(series, s)
	}
	return plot.Chart{
		Title: title, XLabel: "CC algorithm", YLabel: ylabel,
		Kind: "bar", Series: series, XTickLabels: names, Width: 900,
	}.SVG()
}

// SVG renders Figure 5: energy per CCA × MTU (kJ at 50 GB scale).
func (r Fig5Result) SVG() (string, error) {
	return sweepBars(r.Sweep, "Figure 5 — energy to transmit 50 GB", "average energy (kJ)",
		func(c *SweepCell) float64 { return c.MeanEnergyJ() * r.Sweep.ScaleToPaper / 1000 })
}

// SVG renders Figure 6: average power per CCA × MTU.
func (r Fig6Result) SVG() (string, error) {
	return sweepBars(r.Sweep, "Figure 6 — rate of energy consumption", "average power (W)",
		func(c *SweepCell) float64 { return c.MeanPowerW() })
}

// scatterByCCA builds per-CCA scatter series from the sweep.
func scatterByCCA(sw *SweepResult, x func(*SweepCell, int) float64, y func(*SweepCell, int) float64) []plot.Series {
	var series []plot.Series
	for _, name := range cca.PaperOrder() {
		s := plot.Series{Name: name}
		for _, mtu := range SweepMTUs {
			c := sw.Cell(name, mtu)
			for i := range c.EnergyJ {
				s.X = append(s.X, x(c, i))
				s.Y = append(s.Y, y(c, i))
			}
		}
		series = append(series, s)
	}
	return series
}

// SVG renders Figure 7: energy vs completion time (50 GB scale).
func (r Fig7Result) SVG() (string, error) {
	k := r.Sweep.ScaleToPaper
	return plot.Chart{
		Title:  "Figure 7 — energy vs flow completion time",
		XLabel: "iperf time (s, 50 GB scale)",
		YLabel: "energy (kJ, 50 GB scale)",
		Kind:   "scatter",
		Series: scatterByCCA(r.Sweep,
			func(c *SweepCell, i int) float64 { return c.FCTSecs[i] * k },
			func(c *SweepCell, i int) float64 { return c.EnergyJ[i] * k / 1000 }),
	}.SVG()
}

// SVG renders Figure 8: energy vs retransmissions (log x).
func (r Fig8Result) SVG() (string, error) {
	k := r.Sweep.ScaleToPaper
	return plot.Chart{
		Title:  "Figure 8 — energy vs retransmissions",
		XLabel: "retransmissions (packets, 50 GB scale, log)",
		YLabel: "energy (kJ, 50 GB scale)",
		Kind:   "scatter",
		LogX:   true,
		Series: scatterByCCA(r.Sweep,
			func(c *SweepCell, i int) float64 { return c.Retx[i]*k + 1 },
			func(c *SweepCell, i int) float64 { return c.EnergyJ[i] * k / 1000 }),
	}.SVG()
}

// SVG renders the same-sender comparison as a text panel.
func (r SameSenderResult) SVG() (string, error) { return textPanel(r.Table()) }

// SVG renders the ablation summary as a text panel.
func (r AblationResult) SVG() (string, error) { return textPanel(r.Table()) }

// SVG renders the fairness/energy frontier: savings against Jain's index,
// from the fair split (jain 1) to the serial schedule (jain 0.5).
func (r FrontierResult) SVG() (string, error) {
	s := plot.Series{Name: "frontier"}
	for _, p := range r.Points {
		s.X = append(s.X, p.Jain)
		s.Y = append(s.Y, p.SavingsFrac*100)
	}
	return plot.Chart{
		Title:  "Fairness/energy frontier — savings vs Jain's index",
		XLabel: "Jain's fairness index",
		YLabel: "energy savings over fair (%)",
		Kind:   "line",
		Series: []plot.Series{s},
	}.SVG()
}

// SVG renders the production benchmark as grouped energy bars per CCA.
func (r ProductionResult) SVG() (string, error) {
	names := productionSet()
	var series []plot.Series
	for _, mtu := range []int{1500, 9000} {
		s := plot.Series{Name: fmt.Sprintf("MTU %d", mtu)}
		for i, name := range names {
			s.X = append(s.X, float64(i))
			s.Y = append(s.Y, stats.Mean(r.Cell(name, mtu).EnergyJ)*r.ScaleToPaper/1000)
		}
		series = append(series, s)
	}
	return plot.Chart{
		Title:  "Production CCAs — energy to transmit 50 GB",
		XLabel: "CC algorithm", YLabel: "average energy (kJ)",
		Kind: "bar", Series: series, XTickLabels: names, Width: 760,
	}.SVG()
}

// SVG renders the workload experiment: energy per byte vs offered load.
func (r WorkloadResult) SVG() (string, error) {
	byDist := map[string]*plot.Series{}
	var series []*plot.Series
	for _, p := range r.Points {
		s, ok := byDist[p.Dist]
		if !ok {
			s = &plot.Series{Name: p.Dist}
			byDist[p.Dist] = s
			series = append(series, s)
		}
		s.X = append(s.X, p.Load)
		s.Y = append(s.Y, p.EnergyPerGB)
	}
	out := make([]plot.Series, len(series))
	for i, s := range series {
		out[i] = *s
	}
	return plot.Chart{
		Title:  "Datacenter workloads — energy per byte vs offered load",
		XLabel: "offered load (fraction of bottleneck)",
		YLabel: "sender energy (J/GB)",
		Kind:   "line",
		Series: out,
	}.SVG()
}
