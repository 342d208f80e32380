package rbft_test

import (
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"rbft/internal/harness"
)

// TestReproductionRecord runs the headline experiments once in quick mode —
// what `rbft-bench -exp table1|fig7a|fig8|fig10 -quick` prints — and checks
// each cell EXPERIMENTS.md records for them:
//
//   - Table I's three degradations, within 2 points;
//   - figure 7a's five peaks (the highest throughput of each curve), within 3%;
//   - figures 8 and 10's minimum relative throughput at f=1 and f=2, within
//     1 point.
//
// A change that moves the simulator's numbers has to move the record with
// them, and one that moves them past these bounds shows here rather than in a
// reader's comparison of two bench_full.txt files. About 45 s on 2 vCPUs.
func TestReproductionRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four experiments in quick mode")
	}
	start := time.Now()
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	o := harness.Options{Quick: true, Seed: 1}

	table1 := section(t, string(doc), "## Table I")
	for _, r := range harness.Table1(o) {
		want := number(t, cell(t, table1, r.Protocol, 3))
		if math.Abs(r.MaxDegradationPct-want) > 2 {
			t.Errorf("Table I %s: measured %.1f%%, EXPERIMENTS.md records %.1f%% (tolerance 2 points)", r.Protocol, r.MaxDegradationPct, want)
		}
	}

	fig7 := section(t, string(doc), "## Figure 7")
	peakRE := regexp.MustCompile(`([0-9.]+)k/`)
	for _, c := range harness.Figure7(8, o) {
		want := 0.0
		for _, m := range peakRE.FindAllStringSubmatch(cell(t, fig7, c.System, 2), -1) {
			want = math.Max(want, number(t, m[1]))
		}
		got := 0.0
		for _, p := range c.Points {
			got = math.Max(got, p.ThroughputKreqS)
		}
		if math.Abs(got-want) > 0.03*want {
			t.Errorf("figure 7a %s: measured peak %.1fk, EXPERIMENTS.md records %.1fk (tolerance 3%%)", c.System, got, want)
		}
	}

	fig810 := section(t, string(doc), "## Figures 8 & 10")
	for _, fig := range []struct {
		row string
		run func(int, harness.Options) harness.AttackCurve
	}{
		{"worst-attack-1 (fig 8)", harness.Figure8},
		{"worst-attack-2 (fig 10)", harness.Figure10},
	} {
		for col, f := range []int{1, 2} {
			got := fig.run(f, o).MinPct()
			want := number(t, cell(t, fig810, fig.row, 2+col))
			if math.Abs(got-want) > 1 {
				t.Errorf("%s f=%d: measured minimum %.1f%%, EXPERIMENTS.md records %.1f%% (tolerance 1 point)", fig.row, f, got, want)
			}
		}
	}
	t.Logf("reproduction record checked in %v", time.Since(start).Round(time.Second))
}

// section returns the part of doc from the heading that starts with heading
// to the next "## " heading.
func section(t *testing.T, doc, heading string) string {
	t.Helper()
	i := strings.Index(doc, "\n"+heading)
	if i < 0 {
		t.Fatalf("EXPERIMENTS.md has no %q section", heading)
	}
	s := doc[i+1:]
	if j := strings.Index(s[len(heading):], "\n## "); j >= 0 {
		s = s[:len(heading)+j]
	}
	return s
}

// cell returns column col (1-based) of the markdown table row of sec whose
// first column is label.
func cell(t *testing.T, sec, label string, col int) string {
	t.Helper()
	for _, line := range strings.Split(sec, "\n") {
		cols := strings.Split(line, "|")
		if len(cols) > col && strings.TrimSpace(cols[1]) == label {
			return cols[col]
		}
	}
	t.Fatalf("EXPERIMENTS.md has no table row %q with a column %d", label, col)
	return ""
}

// number parses the first decimal number in s, markup such as ** and % aside.
func number(t *testing.T, s string) float64 {
	t.Helper()
	m := regexp.MustCompile(`[0-9]+(\.[0-9]+)?`).FindString(s)
	v, err := strconv.ParseFloat(m, 64)
	if err != nil {
		t.Fatalf("no number in %q", s)
	}
	return v
}
