package harness

import (
	"fmt"
	"strings"
	"time"

	"rbft/internal/core"
	"rbft/internal/monitor"
	"rbft/internal/pbft"
	"rbft/internal/sim"
	"rbft/internal/types"
)

// CurvePoint is one latency-vs-throughput sample (figure 7's axes).
type CurvePoint struct {
	ThroughputKreqS float64
	LatencyMs       float64
}

// LatencyCurve is one system's figure-7 series.
type LatencyCurve struct {
	System string
	Points []CurvePoint
}

// String renders the curve.
func (c LatencyCurve) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s", c.System)
	for _, p := range c.Points {
		fmt.Fprintf(&b, " (%.1f kreq/s, %.2f ms)", p.ThroughputKreqS, p.LatencyMs)
	}
	b.WriteByte('\n')
	return b.String()
}

// Figure7 regenerates figure 7 (a: 8B, b: 4kB): latency vs throughput for
// RBFT over TCP and UDP plus the three baselines, fault-free, f=1.
func Figure7(size int, o Options) []LatencyCurve {
	o = o.withDefaults()
	peak := saturationLoad(size) / 0.8
	loads := []float64{0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 0.95}
	if o.Quick {
		loads = []float64{0.2, 0.6, 0.95}
	}

	var curves []LatencyCurve
	for _, udp := range []bool{false, true} {
		name := "RBFT w/ TCP"
		if udp {
			name = "RBFT w/ UDP"
		}
		var points []CurvePoint
		for _, frac := range loads {
			cfg := rbftConfig(1, size, frac*peak, o)
			cfg.UDP = udp
			res := sim.New(cfg).Run(o.RunTime)
			points = append(points, CurvePoint{
				ThroughputKreqS: res.Throughput / 1000,
				LatencyMs:       float64(res.AvgLatency) / float64(time.Millisecond),
			})
			if res.Throughput < frac*peak*0.9 {
				break // saturated
			}
		}
		curves = append(curves, LatencyCurve{System: name, Points: points})
	}

	// Baselines sweep absolute loads around each one's own capacity.
	baselinePeaks := map[string]float64{
		"Prime":    primePeak(size),
		"Aardvark": aardvarkPeak(size),
		"Spinning": spinningPeak(size),
	}
	for _, name := range []string{"Prime", "Aardvark", "Spinning"} {
		cap := baselinePeaks[name]
		var abs []float64
		for _, frac := range loads {
			abs = append(abs, frac*cap)
		}
		curves = append(curves, LatencyCurve{System: name, Points: BaselineCurve(name, size, abs, o)})
	}
	return curves
}

// Rough capacity anchors for the figure-7 sweeps, matching each baseline's
// calibrated per-request cost (a fixed term plus a per-KB payload term); the
// sweep itself measures the real saturation point.
func primePeak(size int) float64    { return 1 / (85e-6 + float64(size)/1024*140e-6) }
func aardvarkPeak(size int) float64 { return 1 / (30e-6 + float64(size)/1024*140e-6) }
func spinningPeak(size int) float64 { return 1 / (24e-6 + float64(size)/1024*33e-6) }

// AttackCurve is RBFT's relative throughput under a worst attack across
// request sizes — the layout of figures 8 and 10.
type AttackCurve struct {
	Attack     string
	F          int
	Sizes      []int
	StaticPct  []float64
	DynamicPct []float64
	// InstanceChanges counts instance changes observed during the attacked
	// static runs (the worst attacks are calibrated to stay undetected).
	InstanceChanges int
}

// MinPct returns the worst relative throughput across both workloads.
func (c AttackCurve) MinPct() float64 {
	min := 100.0
	for _, v := range append(append([]float64{}, c.StaticPct...), c.DynamicPct...) {
		if v < min {
			min = v
		}
	}
	return min
}

// String renders the curve as paper-style rows.
func (c AttackCurve) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "RBFT under %s (f=%d), relative throughput (%%)\n", c.Attack, c.F)
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

// attack1Config installs worst-attack-1 (paper §VI-C1) on a fault-free
// configuration: the master primary is correct (node 0 in view 0); the f
// faulty nodes are the highest-numbered ones. Faulty clients craft requests
// unverifiable by the master primary's node; faulty nodes flood it (and the
// correct nodes) with garbage; the faulty replicas of the master instance
// stay silent.
func attack1Config(cfg *sim.Config) {
	cluster := types.NewConfig(cfg.F)
	p := types.NodeID(0) // master primary's node in view 0
	cfg.CorruptClientAuthFor = []types.NodeID{p}
	cfg.NodeBehavior = map[types.NodeID]core.Behavior{}
	var correct []types.NodeID
	for i := 0; i < cluster.N-cfg.F; i++ {
		correct = append(correct, types.NodeID(i))
	}
	for i := cluster.N - cfg.F; i < cluster.N; i++ {
		faulty := types.NodeID(i)
		cfg.NodeBehavior[faulty] = core.Behavior{
			Instance: map[types.InstanceID]pbft.Behavior{
				types.MasterInstance: {Silent: true},
			},
		}
		// Flood the master primary's node hard and the other correct nodes
		// as well (steps ii and iii).
		cfg.Floods = append(cfg.Floods,
			sim.Flood{From: faulty, Targets: []types.NodeID{p}, Size: 8192, Rate: 20000},
			sim.Flood{From: faulty, Targets: correct, Size: 8192, Rate: 5000},
		)
	}
}

// attack2Config installs worst-attack-2 (paper §VI-C2): the master primary
// is faulty (node 0 in view 0). It throttles its instance to just above the
// Δ detection limit; the faulty nodes drop out of PROPAGATE, silence their
// backup-instance replicas, and flood the correct nodes; faulty clients
// flood the client NICs with invalid requests.
func attack2Config(cfg *sim.Config, offered float64) {
	installAttack2WithDelta(cfg, offered, Delta)
}

// installAttack2WithDelta is attack2Config parameterised by the Δ the
// attacker must evade (the Δ-sensitivity ablation sweeps it).
func installAttack2WithDelta(cfg *sim.Config, offered float64, delta float64) {
	cluster := types.NewConfig(cfg.F)
	faulty0 := types.NodeID(0) // hosts the master primary in view 0
	// The smart attacker throttles to Δ·(expected backup throughput) plus a
	// small safety margin, the minimum rate that evades the ratio test.
	throttleRate := delta * 1.02 * offered

	cfg.NodeBehavior = map[types.NodeID]core.Behavior{}
	var correct []types.NodeID
	for i := cfg.F; i < cluster.N; i++ {
		correct = append(correct, types.NodeID(i))
	}
	behavior := core.Behavior{
		DropPropagate: true,
		Instance:      map[types.InstanceID]pbft.Behavior{},
	}
	behavior.Instance[types.MasterInstance] = pbft.Behavior{ProposeRate: throttleRate}
	for b := 1; b < cluster.Instances(); b++ {
		behavior.Instance[types.InstanceID(b)] = pbft.Behavior{Silent: true}
	}
	cfg.NodeBehavior[faulty0] = behavior
	// The node hosting the malicious master primary floods just BELOW the
	// NIC-closure threshold: tripping the defence would sever its own
	// primary's ordering traffic and hand the master instance away at the
	// next instance change. (A flood detector keyed on invalid-message rate
	// is exactly the kind of threshold a smart attacker hides under.)
	stealthRate := 0.8 * (float64(core.FloodThreshold) / core.FloodWindow.Seconds())
	cfg.Floods = append(cfg.Floods,
		sim.Flood{From: faulty0, Targets: correct, Size: 8192, Rate: stealthRate},
		sim.Flood{FromClients: true, Targets: correct, Size: 4096, Rate: 2000},
	)
	// The remaining f-1 faulty nodes silence all their replicas (including
	// any backup-instance primary they host — stalling that instance is
	// harmless because the Δ test compares against the best backup) and
	// flood the correct nodes.
	for i := 1; i < cfg.F; i++ {
		faulty := types.NodeID(i)
		fb := core.Behavior{DropPropagate: true, Instance: map[types.InstanceID]pbft.Behavior{}}
		for inst := 0; inst < cluster.Instances(); inst++ {
			fb.Instance[types.InstanceID(inst)] = pbft.Behavior{Silent: true}
		}
		cfg.NodeBehavior[faulty] = fb
		// These nodes host nothing the attack needs: they flood at full
		// blast and eat the NIC closures.
		cfg.Floods = append(cfg.Floods,
			sim.Flood{From: faulty, Targets: correct, Size: 8192, Rate: 5000})
	}
}

// worstAttackCurve runs one of the two worst attacks across the size sweep.
func worstAttackCurve(name string, f int, install func(cfg *sim.Config, offered float64), o Options) AttackCurve {
	o = o.withDefaults()
	correct := types.NodeID(types.NewConfig(f).N - 1) // highest node is correct in attack-2
	if name == "worst-attack-1" {
		correct = 1 // nodes N-f.. are the faulty ones there; node 1 is correct
	}
	curve := AttackCurve{Attack: name, F: f, Sizes: o.Sizes}
	for _, size := range o.Sizes {
		offered := loadFor(f, size)

		ffCfg := rbftConfig(f, size, offered, o)
		ffExec, _ := runExecuted(ffCfg, o.RunTime, correct)

		atCfg := rbftConfig(f, size, offered, o)
		install(&atCfg, offered)
		atExec, atRes := runExecuted(atCfg, o.RunTime, correct)
		curve.StaticPct = append(curve.StaticPct, pct(atExec, ffExec))
		curve.InstanceChanges += len(atRes.InstanceChanges)

		// Dynamic workload.
		ffDyn := rbftConfig(f, size, offered, o)
		ffDyn.Workload = dynamicWorkload(f, size, o)
		ffDynExec, _ := runExecuted(ffDyn, o.RunTime, correct)

		atDyn := rbftConfig(f, size, offered, o)
		atDyn.Workload = dynamicWorkload(f, size, o)
		install(&atDyn, offered)
		atDynExec, _ := runExecuted(atDyn, o.RunTime, correct)
		curve.DynamicPct = append(curve.DynamicPct, pct(atDynExec, ffDynExec))
	}
	// Relative throughput is capped at 100%: tiny scheduling differences can
	// put the attacked run a hair above the fault-free one.
	for i := range curve.StaticPct {
		if curve.StaticPct[i] > 100 {
			curve.StaticPct[i] = 100
		}
	}
	for i := range curve.DynamicPct {
		if curve.DynamicPct[i] > 100 {
			curve.DynamicPct[i] = 100
		}
	}
	return curve
}

// Figure8 regenerates figure 8: RBFT under worst-attack-1.
func Figure8(f int, o Options) AttackCurve {
	return worstAttackCurve("worst-attack-1", f, func(cfg *sim.Config, _ float64) {
		attack1Config(cfg)
	}, o)
}

// Figure10 regenerates figure 10: RBFT under worst-attack-2.
func Figure10(f int, o Options) AttackCurve {
	return worstAttackCurve("worst-attack-2", f, attack2Config, o)
}

// NodeReading is one node's master/backup monitor reading (figures 9, 11).
type NodeReading struct {
	Node           types.NodeID
	MasterKreqS    float64
	AvgBackupKreqS float64
}

// FormatNodeReadings renders figure 9/11 bars.
func FormatNodeReadings(rs []NodeReading) string {
	var b strings.Builder
	for _, r := range rs {
		fmt.Fprintf(&b, "  node %d: master %.2f kreq/s, backup %.2f kreq/s\n",
			r.Node, r.MasterKreqS, r.AvgBackupKreqS)
	}
	return b.String()
}

// monitorReadings runs an attacked 4kB static run and averages each correct
// node's per-instance monitor samples.
func monitorReadings(f int, install func(cfg *sim.Config, offered float64), correctNodes []types.NodeID, o Options) []NodeReading {
	o = o.withDefaults()
	size := 4096
	offered := saturationLoad(size)
	cfg := rbftConfig(f, size, offered, o)
	install(&cfg, offered)
	cfg.MonitorSampleEvery = cfg.Monitoring.Period
	res := sim.New(cfg).Run(o.RunTime)

	sums := make(map[types.NodeID][]float64)
	counts := make(map[types.NodeID]int)
	for _, s := range res.MonitorSamples {
		// Skip warmup samples and empty readings.
		if s.Throughput[types.MasterInstance] == 0 {
			continue
		}
		acc := sums[s.Node]
		if acc == nil {
			acc = make([]float64, len(s.Throughput))
			sums[s.Node] = acc
		}
		for i, v := range s.Throughput {
			acc[i] += v
		}
		counts[s.Node]++
	}
	var out []NodeReading
	for _, n := range correctNodes {
		acc := sums[n]
		if acc == nil || counts[n] == 0 {
			out = append(out, NodeReading{Node: n})
			continue
		}
		master := acc[types.MasterInstance] / float64(counts[n])
		var backup float64
		nb := 0
		for i, v := range acc {
			if types.InstanceID(i) != types.MasterInstance {
				backup += v / float64(counts[n])
				nb++
			}
		}
		if nb > 0 {
			backup /= float64(nb)
		}
		out = append(out, NodeReading{
			Node:           n,
			MasterKreqS:    master / 1000,
			AvgBackupKreqS: backup / 1000,
		})
	}
	return out
}

// Figure9 regenerates figure 9: throughput measured by the correct nodes'
// monitors under worst-attack-1 (f=1, static 4kB). Nodes 0, 1, 2 are
// correct; node 3 is faulty.
func Figure9(o Options) []NodeReading {
	return monitorReadings(1, func(cfg *sim.Config, _ float64) { attack1Config(cfg) },
		[]types.NodeID{0, 1, 2}, o)
}

// Figure11 regenerates figure 11: monitor readings under worst-attack-2
// (f=1, static 4kB). Node 0 is faulty; nodes 1, 2, 3 are correct.
func Figure11(o Options) []NodeReading {
	return monitorReadings(1, attack2Config, []types.NodeID{1, 2, 3}, o)
}

// UnfairResult is figure 12's data: the per-request master-ordering latency
// series of the attacked and untargeted clients, plus the instance-change
// point.
type UnfairResult struct {
	Lambda time.Duration
	// Series is the ordering-latency log from a correct node's monitor.
	Series []monitor.LatencyRecord
	// InstanceChangeAt is the index in Series after which the instance
	// change took effect (-1 if none occurred).
	InstanceChangeAt int
	// MaxAttackedLatency is the worst latency the attacked client suffered.
	MaxAttackedLatency time.Duration
}

// Figure12 regenerates figure 12: an unfair master primary delays one
// client's requests more and more until a request exceeds Λ and the nodes
// vote a protocol instance change.
func Figure12(o Options) UnfairResult {
	o = o.withDefaults()
	lambda := 1500 * time.Microsecond
	size := 4096

	cfg := rbftConfig(1, size, 600, o)
	cfg.BatchSize = 1 // per-request ordering so per-client delays separate
	cfg.Workload = sim.StaticLoad(2, 300, size)
	cfg.Monitoring.Lambda = lambda
	cfg.Monitoring.Omega = time.Hour // "a high value for Ω", §VI-C3
	cfg.Monitoring.RecordLatencies = true
	cfg.Monitoring.MinRequests = 1 << 30 // disable the Δ test: throughput stays balanced

	run := o.RunTime * 2
	third := run / 3
	// The unfair primary (node 0, master instance) starts fair, then delays
	// client 0 moderately, then beyond Λ.
	moderate := 500 * time.Microsecond
	excessive := 1200 * time.Microsecond
	start := time.Unix(0, 0)
	cfg.Script = []sim.Action{
		{At: start.Add(third), Do: func(s *sim.Sim) {
			s.Node(0).SetBehavior(core.Behavior{Instance: map[types.InstanceID]pbft.Behavior{
				types.MasterInstance: {
					PrePrepareDelay: moderate,
					DelayClients:    map[types.ClientID]bool{0: true},
				},
			}})
		}},
		{At: start.Add(2 * third), Do: func(s *sim.Sim) {
			s.Node(0).SetBehavior(core.Behavior{Instance: map[types.InstanceID]pbft.Behavior{
				types.MasterInstance: {
					PrePrepareDelay: excessive,
					DelayClients:    map[types.ClientID]bool{0: true},
				},
			}})
		}},
	}

	simulator := sim.New(cfg)
	res := simulator.Run(run)

	// Read the latency log from correct node 1's monitor.
	series := simulator.Node(1).Monitor().LatencyLog()
	out := UnfairResult{Lambda: lambda, Series: series, InstanceChangeAt: -1}
	for _, rec := range series {
		if rec.Client == 0 && rec.Latency > out.MaxAttackedLatency {
			out.MaxAttackedLatency = rec.Latency
		}
	}
	if len(res.InstanceChanges) > 0 {
		// Locate the first over-Λ record: the instance change follows it.
		for i, rec := range series {
			if rec.Latency > lambda {
				out.InstanceChangeAt = i
				break
			}
		}
		if out.InstanceChangeAt == -1 {
			out.InstanceChangeAt = len(series) - 1
		}
	}
	return out
}
