package harness

import (
	"testing"
	"time"

	"rbft/internal/obs"
	"rbft/internal/sim"
	"rbft/internal/types"
)

// quickOpts keeps harness tests tractable on CI hardware: one size, short
// runs. The full experiment scale runs through cmd/rbft-bench.
func quickOpts() Options {
	return Options{
		Quick:   true,
		Seed:    1,
		Sizes:   []int{8},
		RunTime: 1200 * time.Millisecond,
		Warmup:  300 * time.Millisecond,
	}
}

func TestTable1MatchesPaperOrdering(t *testing.T) {
	rows := Table1(quickOpts())
	if len(rows) != 3 {
		t.Fatalf("Table1 returned %d rows", len(rows))
	}
	byName := map[string]float64{}
	for _, r := range rows {
		byName[r.Protocol] = r.MaxDegradationPct
	}
	// Paper: Prime 78%, Aardvark 87%, Spinning 99%. The ordering
	// Spinning > Aardvark > Prime must hold, with each in a plausible band.
	if !(byName["Spinning"] > byName["Aardvark"] && byName["Aardvark"] > byName["Prime"]) {
		t.Fatalf("degradation ordering wrong: %v", byName)
	}
	if byName["Spinning"] < 90 {
		t.Errorf("Spinning degradation %.1f%%, paper says 99%%", byName["Spinning"])
	}
	if byName["Aardvark"] < 70 || byName["Aardvark"] > 95 {
		t.Errorf("Aardvark degradation %.1f%%, paper says 87%%", byName["Aardvark"])
	}
	if byName["Prime"] < 55 || byName["Prime"] > 90 {
		t.Errorf("Prime degradation %.1f%%, paper says 78%%", byName["Prime"])
	}
}

func TestFigure1Shape(t *testing.T) {
	o := quickOpts()
	o.Sizes = []int{8, 4096}
	c := Figure1(o)
	if len(c.StaticPct) != 2 {
		t.Fatal("missing sizes")
	}
	// Rising with size; minimum around the paper's 22%.
	if c.StaticPct[1] <= c.StaticPct[0] {
		t.Errorf("Prime static curve must rise with size: %v", c.StaticPct)
	}
	if c.MinPct() < 10 || c.MinPct() > 40 {
		t.Errorf("Prime worst relative = %.1f%%, paper says ~22%%", c.MinPct())
	}
}

func TestFigure3Shape(t *testing.T) {
	c := Figure3(quickOpts())
	if c.StaticPct[0] > 5 {
		t.Errorf("Spinning static relative = %.1f%%, paper says ~1%%", c.StaticPct[0])
	}
	if c.DynamicPct[0] < c.StaticPct[0] {
		t.Errorf("Spinning dynamic (%.1f%%) should not be below static (%.1f%%)",
			c.DynamicPct[0], c.StaticPct[0])
	}
}

func TestFigure7CurvesWellFormed(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	curves := Figure7(8, quickOpts())
	if len(curves) != 5 {
		t.Fatalf("Figure7 returned %d curves, want 5 systems", len(curves))
	}
	peaks := map[string]float64{}
	for _, c := range curves {
		if len(c.Points) == 0 {
			t.Fatalf("%s: empty curve", c.System)
		}
		for _, p := range c.Points {
			if p.LatencyMs <= 0 || p.ThroughputKreqS < 0 {
				t.Fatalf("%s: bad point %+v", c.System, p)
			}
		}
		peak := 0.0
		for _, p := range c.Points {
			if p.ThroughputKreqS > peak {
				peak = p.ThroughputKreqS
			}
		}
		peaks[c.System] = peak
	}
	// Paper fig 7a orderings: Spinning highest, Prime lowest.
	if !(peaks["Spinning"] > peaks["RBFT w/ TCP"]) {
		t.Errorf("Spinning peak (%.1f) must exceed RBFT (%.1f)", peaks["Spinning"], peaks["RBFT w/ TCP"])
	}
	if !(peaks["Prime"] < peaks["RBFT w/ TCP"]) {
		t.Errorf("Prime peak (%.1f) must trail RBFT (%.1f)", peaks["Prime"], peaks["RBFT w/ TCP"])
	}
}

func TestFigure10SmallLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	c := Figure10(1, quickOpts())
	if c.InstanceChanges != 0 {
		t.Errorf("smart worst-attack-2 was detected (%d instance changes)", c.InstanceChanges)
	}
	if min := c.MinPct(); min < 90 {
		t.Errorf("worst-attack-2 drove relative throughput to %.1f%%, paper bounds the loss at 3%%", min)
	}
}

func TestFigure12InstanceChangeOnLambda(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	r := Figure12(quickOpts())
	if len(r.Series) == 0 {
		t.Fatal("no latency series")
	}
	if r.InstanceChangeAt < 0 {
		t.Fatal("unfair primary exceeded Lambda but no instance change occurred")
	}
	if r.MaxAttackedLatency <= r.Lambda {
		t.Fatalf("attack never exceeded Lambda (max %v)", r.MaxAttackedLatency)
	}
}

// nicCloses counts the NIC closures that name one peer.
type nicCloses struct {
	peer types.NodeID
	n    int
}

func (c *nicCloses) Enabled() bool { return true }
func (c *nicCloses) Trace(ev obs.Event) {
	if ev.Type == obs.EvNICClose && ev.Peer == c.peer {
		c.n++
	}
}

// TestWorstAttack2FloodStaysBelowClosure: in the quick worst-attack-2 run
// (f = 1), node 0's stealth flood, paced from core's flood constants, never
// closes its NIC; the same flood at twice that rate does, so the pacing is
// what keeps the NIC open.
func TestWorstAttack2FloodStaysBelowClosure(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	o := quickOpts().withDefaults()
	closures := func(scale float64) int {
		size, offered := o.Sizes[0], loadFor(1, o.Sizes[0])
		cfg := rbftConfig(1, size, offered, o)
		attack2Config(&cfg, offered)
		if cfg.Floods[0].From != 0 || cfg.Floods[0].FromClients {
			t.Fatalf("the first flood is not node 0's: %+v", cfg.Floods[0])
		}
		cfg.Floods[0].Rate *= scale
		c := &nicCloses{peer: 0}
		cfg.Trace = c
		sim.New(cfg).Run(o.RunTime)
		return c.n
	}
	if n := closures(1); n != 0 {
		t.Errorf("the stealth flood closed node 0's NIC %d times, want 0", n)
	}
	if n := closures(2); n == 0 {
		t.Error("a flood at twice the stealth rate never closed node 0's NIC: the closure rate is not core's")
	}
}
