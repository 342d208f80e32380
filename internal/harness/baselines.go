package harness

import (
	"fmt"
	"strings"
	"time"

	"rbft/internal/baseline"
)

// RelativeCurve is one protocol's relative throughput under attack, in
// percent of its fault-free throughput, across request sizes — the layout of
// figures 1, 2 and 3.
type RelativeCurve struct {
	Protocol string
	Sizes    []int
	// StaticPct and DynamicPct are the two workload curves.
	StaticPct  []float64
	DynamicPct []float64
}

// MinPct returns the worst (lowest) relative throughput across both curves.
func (c RelativeCurve) MinPct() float64 {
	min := 100.0
	for _, v := range append(append([]float64{}, c.StaticPct...), c.DynamicPct...) {
		if v < min {
			min = v
		}
	}
	return min
}

// String renders the curve as paper-style rows.
func (c RelativeCurve) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s relative throughput under attack (%% of fault-free)\n", c.Protocol)
	fmt.Fprintf(&b, "%-12s", "size(B)")
	for _, s := range c.Sizes {
		fmt.Fprintf(&b, "%8d", s)
	}
	fmt.Fprintf(&b, "\n%-12s", "static")
	for _, v := range c.StaticPct {
		fmt.Fprintf(&b, "%8.1f", v)
	}
	fmt.Fprintf(&b, "\n%-12s", "dynamic")
	for _, v := range c.DynamicPct {
		fmt.Fprintf(&b, "%8.1f", v)
	}
	b.WriteByte('\n')
	return b.String()
}

// baselineRun abstracts the three baseline protocols for the shared sweep.
// The window bounds where the attack applies and where throughput is
// measured (figures 1-3 report the throughput while the malicious primary
// is in place, relative to fault-free over the same window).
type baselineRun func(attack bool, from, until time.Duration, w baseline.Workload) baseline.Result

func relativeCurve(name string, run baselineRun, o Options) RelativeCurve {
	o = o.withDefaults()
	// Batch-level simulations are cheap; use paper-scale durations so the
	// monitoring histories (5s grace windows) are meaningful.
	staticDur := 30 * time.Second
	stepDur := 5 * time.Second
	curve := RelativeCurve{Protocol: name, Sizes: o.Sizes}
	for _, size := range o.Sizes {
		static := baseline.Static(500000, size, staticDur) // saturating
		from := staticDur / 3
		ff := run(false, from, 0, static)
		at := run(true, from, 0, static)
		curve.StaticPct = append(curve.StaticPct, 100*ratio(at.WindowThroughput, ff.WindowThroughput))

		dyn := baseline.Dynamic(1000, size, stepDur)
		spike := dyn.SpikeStart()
		ffd := run(false, spike, spike+stepDur, dyn)
		atd := run(true, spike, spike+stepDur, dyn)
		curve.DynamicPct = append(curve.DynamicPct, 100*ratio(atd.WindowThroughput, ffd.WindowThroughput))
	}
	return curve
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	r := a / b
	if r > 1 {
		r = 1
	}
	return r
}

// Figure1 regenerates figure 1: Prime under the RTT-inflation attack.
func Figure1(o Options) RelativeCurve {
	return relativeCurve("Prime", func(attack bool, from, until time.Duration, w baseline.Workload) baseline.Result {
		return baseline.Prime(baseline.PrimeConfig{Attack: attack, AttackFrom: from, AttackUntil: until}, w)
	}, o)
}

// Figure2 regenerates figure 2: Aardvark under the delay-to-threshold
// attack.
func Figure2(o Options) RelativeCurve {
	return relativeCurve("Aardvark", func(attack bool, from, until time.Duration, w baseline.Workload) baseline.Result {
		return baseline.Aardvark(baseline.AardvarkConfig{Attack: attack, AttackFrom: from, AttackUntil: until}, w)
	}, o)
}

// Figure3 regenerates figure 3: Spinning under the just-below-Stimeout
// delay attack. Spinning's rotation makes the attack continuous, so the
// whole window is attacked.
func Figure3(o Options) RelativeCurve {
	return relativeCurve("Spinning", func(attack bool, _, _ time.Duration, w baseline.Workload) baseline.Result {
		return baseline.Spinning(baseline.SpinningConfig{Attack: attack}, w)
	}, o)
}

// Table1Row is one row of Table I.
type Table1Row struct {
	Protocol          string
	MaxDegradationPct float64
}

// Table1 regenerates Table I: the maximum throughput degradation of the
// three baseline protocols under attack (paper: Prime 78%, Aardvark 87%,
// Spinning 99%).
func Table1(o Options) []Table1Row {
	curves := []RelativeCurve{Figure1(o), Figure2(o), Figure3(o)}
	rows := make([]Table1Row, 0, len(curves))
	for _, c := range curves {
		rows = append(rows, Table1Row{
			Protocol:          c.Protocol,
			MaxDegradationPct: 100 - c.MinPct(),
		})
	}
	return rows
}

// FormatTable1 renders Table I like the paper.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	b.WriteString("Table I: maximum throughput degradation under attack\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-10s %5.1f%%\n", r.Protocol, r.MaxDegradationPct)
	}
	return b.String()
}

// BaselineCurve produces a latency-vs-throughput curve for one baseline by
// sweeping offered load (figure 7's Prime/Aardvark/Spinning series).
func BaselineCurve(name string, size int, loads []float64, o Options) []CurvePoint {
	o = o.withDefaults()
	dur := 10 * time.Second
	var run func(w baseline.Workload) baseline.Result
	switch name {
	case "Prime":
		run = func(w baseline.Workload) baseline.Result {
			return baseline.Prime(baseline.PrimeConfig{}, w)
		}
	case "Aardvark":
		run = func(w baseline.Workload) baseline.Result {
			return baseline.Aardvark(baseline.AardvarkConfig{}, w)
		}
	case "Spinning":
		run = func(w baseline.Workload) baseline.Result {
			return baseline.Spinning(baseline.SpinningConfig{}, w)
		}
	default:
		return nil
	}
	var points []CurvePoint
	for _, load := range loads {
		res := run(baseline.Static(load, size, dur))
		points = append(points, CurvePoint{
			ThroughputKreqS: res.Throughput / 1000,
			LatencyMs:       float64(res.AvgLatency) / float64(time.Millisecond),
		})
		// Past saturation the open-loop latency diverges; stop the curve.
		if res.Throughput < load*0.9 {
			break
		}
	}
	return points
}
