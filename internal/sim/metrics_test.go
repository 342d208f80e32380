package sim

import (
	"testing"
	"time"

	"rbft/internal/client"
	"rbft/internal/obs"
	"rbft/internal/types"
)

func TestMetricsWindowing(t *testing.T) {
	m := newMetrics(types.NewConfig(1))
	start := time.Unix(0, 0)
	m.start = start.Add(time.Second) // warmup boundary
	m.end = start.Add(3 * time.Second)

	// Before the window: ignored.
	m.recordCompletion(1, client.Completed{ID: 1, Latency: time.Millisecond}, start, false)
	m.Trace(obs.Event{At: start, Type: obs.EvExecuted, Node: 0})
	// Inside: counted.
	m.recordCompletion(1, client.Completed{ID: 2, Latency: 2 * time.Millisecond}, start.Add(2*time.Second), false)
	m.Trace(obs.Event{At: start.Add(2 * time.Second), Type: obs.EvExecuted, Node: 0})
	// After: ignored.
	m.recordCompletion(1, client.Completed{ID: 3, Latency: time.Millisecond}, start.Add(4*time.Second), false)

	res := m.result(Config{})
	if res.Completed != 1 {
		t.Fatalf("Completed = %d, want 1 (window only)", res.Completed)
	}
	if res.ExecutedPerNode[0] != 1 {
		t.Fatalf("ExecutedPerNode[0] = %d, want 1", res.ExecutedPerNode[0])
	}
	if res.AvgLatency != 2*time.Millisecond {
		t.Fatalf("AvgLatency = %v", res.AvgLatency)
	}
	if res.Window != 2*time.Second {
		t.Fatalf("Window = %v", res.Window)
	}
	if res.Throughput != 0.5 {
		t.Fatalf("Throughput = %v, want 0.5 req/s", res.Throughput)
	}
}

func TestMetricsLatencySeriesTracking(t *testing.T) {
	m := newMetrics(types.NewConfig(1))
	m.start = time.Unix(0, 0)
	m.end = time.Unix(10, 0)
	// Series points are recorded regardless of the window (a series covers
	// the whole run), but summary stats stay windowed.
	m.recordCompletion(2, client.Completed{ID: 1, Latency: time.Millisecond}, time.Unix(20, 0), true)
	res := m.result(Config{})
	if len(res.ClientSeries) != 1 || res.ClientSeries[0].Client != 2 {
		t.Fatalf("series = %+v", res.ClientSeries)
	}
	if res.Completed != 0 {
		t.Fatal("out-of-window completion leaked into the summary")
	}
}

func TestPercentiles(t *testing.T) {
	m := newMetrics(types.NewConfig(1))
	m.start = time.Unix(0, 0)
	m.end = time.Unix(1000, 0)
	at := time.Unix(500, 0)
	for i := 1; i <= 100; i++ {
		m.recordCompletion(0, client.Completed{ID: types.RequestID(i), Latency: time.Duration(i) * time.Millisecond}, at, false)
	}
	res := m.result(Config{})
	if res.P50Latency < 49*time.Millisecond || res.P50Latency > 52*time.Millisecond {
		t.Fatalf("P50 = %v", res.P50Latency)
	}
	if res.P99Latency < 98*time.Millisecond {
		t.Fatalf("P99 = %v", res.P99Latency)
	}
}

// TestNearestRank pins the nearest-rank percentile definition: the
// percentile is the ceil(p·n)-th smallest observation (index ceil(p·n)-1).
func TestNearestRank(t *testing.T) {
	cases := []struct {
		p    float64
		n    int
		want int
	}{
		{0.50, 1, 0},
		{0.99, 1, 0},
		{0.50, 2, 0}, // ceil(1.0)-1
		{0.50, 3, 1}, // ceil(1.5)-1
		{0.50, 100, 49},
		{0.99, 100, 98},
		{0.99, 99, 98},  // ceil(98.01)-1
		{0.99, 101, 99}, // ceil(99.99)-1
		{0.25, 4, 0},
		{0.75, 4, 2},
		{1.00, 10, 9},
		{0.01, 10, 0},
	}
	for _, c := range cases {
		if got := nearestRank(c.p, c.n); got != c.want {
			t.Errorf("nearestRank(%v, %d) = %d, want %d", c.p, c.n, got, c.want)
		}
	}
}

// TestMetricsTraceAggregation checks the event-to-aggregate folding that
// replaced the ad-hoc recording hooks.
func TestMetricsTraceAggregation(t *testing.T) {
	m := newMetrics(types.NewConfig(1))
	m.start = time.Unix(0, 0)
	m.end = time.Unix(10, 0)
	at := time.Unix(1, 0)

	m.Trace(obs.Event{At: at, Type: obs.EvOrdered, Node: 1, Instance: 1, Count: 5})
	m.Trace(obs.Event{At: at, Type: obs.EvOrdered, Node: 1, Instance: 1, Count: 2})
	m.Trace(obs.Event{At: at, Type: obs.EvInstanceChangeComplete, Node: 2, CPI: 1, View: 1, Reason: "throughput-delta"})
	m.Trace(obs.Event{At: at, Type: obs.EvNICClose, Node: 0, Peer: 3})
	m.Trace(obs.Event{At: at, Type: obs.EvMonitorSample, Node: 3, Values: []float64{7, 8}})
	// Unaggregated event types must be ignored, not counted anywhere.
	m.Trace(obs.Event{At: at, Type: obs.EvPrePrepare, Node: 0, Instance: 0, Seq: 1})

	res := m.result(Config{})
	if res.OrderedPerNodeInstance[1][1] != 7 {
		t.Fatalf("ordered[1][1] = %d, want 7", res.OrderedPerNodeInstance[1][1])
	}
	if len(res.InstanceChanges) != 1 {
		t.Fatalf("instance changes = %d, want 1", len(res.InstanceChanges))
	}
	ic := res.InstanceChanges[0]
	if ic.Node != 2 || ic.CPI != 1 || ic.NewView != 1 || ic.Reason.String() != "throughput-delta" {
		t.Fatalf("IC record wrong: %+v", ic)
	}
	if res.NICCloses != 1 {
		t.Fatalf("NICCloses = %d, want 1", res.NICCloses)
	}
	if len(res.MonitorSamples) != 1 || res.MonitorSamples[0].Node != 3 || res.MonitorSamples[0].Throughput[1] != 8 {
		t.Fatalf("monitor samples wrong: %+v", res.MonitorSamples)
	}
}

func TestResultViewChanged(t *testing.T) {
	r := &Result{}
	if r.ViewChanged() {
		t.Fatal("empty result claims a view change")
	}
	r.InstanceChanges = append(r.InstanceChanges, ICRecord{})
	if !r.ViewChanged() {
		t.Fatal("result with IC records denies a view change")
	}
}
