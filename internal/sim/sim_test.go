package sim

import (
	"testing"
	"time"

	"rbft/internal/core"
	"rbft/internal/monitor"
	"rbft/internal/pbft"
	"rbft/internal/types"
)

func baseConfig(f int, size int, clients int, rate float64) Config {
	return Config{
		F:            f,
		Cost:         DefaultCostModel(),
		Seed:         1,
		BatchSize:    64,
		BatchTimeout: 2 * time.Millisecond,
		Monitoring: monitor.Config{
			Period:      200 * time.Millisecond,
			Delta:       0.85,
			MinRequests: 20,
		},
		Workload: StaticLoad(clients, rate, size),
		Warmup:   200 * time.Millisecond,
	}
}

func TestFaultFreeRunCompletes(t *testing.T) {
	cfg := baseConfig(1, 8, 4, 500)
	res := New(cfg).Run(2 * time.Second)
	if res.Completed == 0 {
		t.Fatal("no requests completed")
	}
	// Offered load 2000 req/s; the cluster must sustain it.
	if res.Throughput < 1800 {
		t.Fatalf("throughput %.0f req/s, want ~2000", res.Throughput)
	}
	if res.AvgLatency <= 0 || res.AvgLatency > 50*time.Millisecond {
		t.Fatalf("implausible latency %v", res.AvgLatency)
	}
	if res.ViewChanged() {
		t.Fatalf("spurious instance change in fault-free run: %+v", res.InstanceChanges)
	}
	// All nodes executed the same count (within the window boundary skew).
	for i := 1; i < len(res.ExecutedPerNode); i++ {
		a, b := res.ExecutedPerNode[0], res.ExecutedPerNode[i]
		if diff := a - b; diff < -100 || diff > 100 {
			t.Fatalf("node execution counts diverge: %v", res.ExecutedPerNode)
		}
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	run := func() *Result {
		return New(baseConfig(1, 8, 3, 300)).Run(1 * time.Second)
	}
	a, b := run(), run()
	if a.Completed != b.Completed || a.AvgLatency != b.AvgLatency || a.Throughput != b.Throughput {
		t.Fatalf("same seed produced different results: %d/%v vs %d/%v",
			a.Completed, a.AvgLatency, b.Completed, b.AvgLatency)
	}
	c := New(func() Config { cfg := baseConfig(1, 8, 3, 300); cfg.Seed = 99; return cfg }()).Run(1 * time.Second)
	if c.Completed == a.Completed && c.AvgLatency == a.AvgLatency {
		t.Log("different seed produced identical results (possible but unlikely)")
	}
}

func TestUDPLowerLatencyThanTCP(t *testing.T) {
	tcp := New(baseConfig(1, 8, 3, 300)).Run(1 * time.Second)
	udpCfg := baseConfig(1, 8, 3, 300)
	udpCfg.UDP = true
	udp := New(udpCfg).Run(1 * time.Second)
	if udp.AvgLatency >= tcp.AvgLatency {
		t.Fatalf("UDP latency %v not below TCP latency %v", udp.AvgLatency, tcp.AvgLatency)
	}
	// Same order of magnitude of throughput.
	if udp.Throughput < tcp.Throughput*0.8 {
		t.Fatalf("UDP throughput collapsed: %v vs %v", udp.Throughput, tcp.Throughput)
	}
}

func TestSilentMasterPrimaryRecoversViaInstanceChange(t *testing.T) {
	cfg := baseConfig(1, 8, 4, 500)
	masterPrimaryNode := types.NodeID(0) // view 0: primary of instance 0 is node 0
	cfg.NodeBehavior = map[types.NodeID]core.Behavior{
		masterPrimaryNode: {Instance: map[types.InstanceID]pbft.Behavior{
			types.MasterInstance: {Silent: true},
		}},
	}
	res := New(cfg).Run(3 * time.Second)
	if !res.ViewChanged() {
		t.Fatal("silent master primary did not trigger an instance change")
	}
	if res.Throughput < 1000 {
		t.Fatalf("throughput %.0f req/s after recovery, want most of the 2000 offered", res.Throughput)
	}
}

func TestThrottledMasterPrimaryDetected(t *testing.T) {
	// A master primary that throttles hard (far below Δ) must be replaced:
	// 640 refs/s, one 64-ref batch per 100 ms, against 2000 offered.
	cfg := baseConfig(1, 8, 4, 500)
	cfg.NodeBehavior = map[types.NodeID]core.Behavior{
		0: {Instance: map[types.InstanceID]pbft.Behavior{
			types.MasterInstance: {ProposeRate: 640},
		}},
	}
	res := New(cfg).Run(3 * time.Second)
	if !res.ViewChanged() {
		t.Fatal("throttling master primary evaded detection")
	}
}

func TestNodeFloodTriggersNICClosureNotCollapse(t *testing.T) {
	cfg := baseConfig(1, 8, 4, 500)
	cfg.Floods = []Flood{{
		From: 3, Targets: []types.NodeID{0, 1, 2}, Size: 4096, Rate: 5000,
	}}
	res := New(cfg).Run(2 * time.Second)
	if res.NICCloses == 0 {
		t.Fatal("flood never tripped NIC closure")
	}
	if res.Throughput < 1500 {
		t.Fatalf("throughput %.0f req/s under flood, want most of 2000", res.Throughput)
	}
}

func TestDynamicWorkloadRuns(t *testing.T) {
	cfg := baseConfig(1, 8, 1, 300)
	cfg.Workload = DynamicLoad(300, 8, 150*time.Millisecond)
	res := New(cfg).Run(2 * time.Second)
	if res.Completed == 0 {
		t.Fatal("dynamic workload completed nothing")
	}
	if res.ViewChanged() {
		t.Fatalf("dynamic load alone triggered an instance change: %+v", res.InstanceChanges)
	}
}

func TestMonitorSampling(t *testing.T) {
	cfg := baseConfig(1, 8, 3, 300)
	cfg.MonitorSampleEvery = 250 * time.Millisecond
	res := New(cfg).Run(1 * time.Second)
	if len(res.MonitorSamples) == 0 {
		t.Fatal("no monitor samples collected")
	}
	sample := res.MonitorSamples[len(res.MonitorSamples)-1]
	if len(sample.Throughput) != 2 {
		t.Fatalf("sample has %d instances, want 2", len(sample.Throughput))
	}
}

func TestClientLatencySeries(t *testing.T) {
	cfg := baseConfig(1, 8, 2, 100)
	cfg.TrackClientLatency = true
	res := New(cfg).Run(1 * time.Second)
	if len(res.ClientSeries) == 0 {
		t.Fatal("no latency series recorded")
	}
	for _, p := range res.ClientSeries {
		if p.Latency <= 0 {
			t.Fatalf("non-positive latency point %+v", p)
		}
	}
}

func TestF2Run(t *testing.T) {
	cfg := baseConfig(2, 8, 4, 300)
	res := New(cfg).Run(1 * time.Second)
	if res.Completed == 0 {
		t.Fatal("f=2 run completed nothing")
	}
	if res.ViewChanged() {
		t.Fatalf("spurious instance change: %+v", res.InstanceChanges)
	}
}
