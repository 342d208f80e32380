// Benchmarks regenerating every table and figure of the RBFT paper's
// evaluation, plus micro-benchmarks of the hot paths. One benchmark per
// paper artifact; each reports the headline numbers via b.ReportMetric so
// `go test -bench` output doubles as the reproduction record (see
// EXPERIMENTS.md).
//
// The experiment benchmarks run the deterministic simulator/harness once per
// iteration in quick mode; use cmd/rbft-bench for paper-scale runs.
package rbft_test

import (
	"strings"
	"testing"
	"time"

	"rbft/internal/crypto"
	"rbft/internal/harness"
	"rbft/internal/message"
	"rbft/internal/monitor"
	"rbft/internal/sim"
	"rbft/internal/types"
)

func benchOptions() harness.Options {
	return harness.Options{Quick: true, Seed: 1, Sizes: []int{8, 4096}}
}

// BenchmarkTable1 regenerates Table I: maximum throughput degradation of
// Prime (paper: 78%), Aardvark (87%) and Spinning (99%) under attack.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := harness.Table1(benchOptions())
		for _, r := range rows {
			b.ReportMetric(r.MaxDegradationPct, r.Protocol+"_degr_%")
		}
	}
}

// BenchmarkFigure1 regenerates figure 1: Prime relative throughput under the
// RTT-inflation attack (paper: down to ~22%).
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := harness.Figure1(benchOptions())
		b.ReportMetric(c.MinPct(), "min_rel_%")
	}
}

// BenchmarkFigure2 regenerates figure 2: Aardvark under the
// delay-to-threshold attack (paper: static >=76%, dynamic down to 13%).
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := harness.Figure2(benchOptions())
		b.ReportMetric(c.StaticPct[0], "static8B_rel_%")
		b.ReportMetric(c.DynamicPct[0], "dynamic8B_rel_%")
	}
}

// BenchmarkFigure3 regenerates figure 3: Spinning under the
// just-below-Stimeout attack (paper: ~1% static, ~4.5% dynamic).
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := harness.Figure3(benchOptions())
		b.ReportMetric(c.StaticPct[0], "static8B_rel_%")
		b.ReportMetric(c.DynamicPct[0], "dynamic8B_rel_%")
	}
}

// BenchmarkFigure7a regenerates figure 7a: fault-free latency vs throughput
// at 8B for all five systems (paper peaks: RBFT 35k, Aardvark 31.6k,
// Spinning +20%, Prime ~12k with ~10x latency).
func BenchmarkFigure7a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		curves := harness.Figure7(8, benchOptions())
		reportPeaks(b, curves)
	}
}

// BenchmarkFigure7b regenerates figure 7b: the same at 4kB (paper peaks:
// RBFT 5k, Aardvark 1.7k, Spinning +30%).
func BenchmarkFigure7b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		curves := harness.Figure7(4096, benchOptions())
		reportPeaks(b, curves)
	}
}

func reportPeaks(b *testing.B, curves []harness.LatencyCurve) {
	b.Helper()
	for _, c := range curves {
		peak := 0.0
		for _, p := range c.Points {
			if p.ThroughputKreqS > peak {
				peak = p.ThroughputKreqS
			}
		}
		b.ReportMetric(peak, metricName(c.System)+"_peak_kreq/s")
	}
}

// metricName slugifies a system name for ReportMetric (units must contain no
// whitespace).
func metricName(s string) string {
	s = strings.ReplaceAll(s, " ", "")
	return strings.ReplaceAll(s, "/", "_")
}

// BenchmarkFigure8 regenerates figure 8: RBFT under worst-attack-1 (paper:
// loss <=2.2% at f=1, <=0.4% at f=2).
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c1 := harness.Figure8(1, benchOptions())
		b.ReportMetric(c1.MinPct(), "f1_min_rel_%")
	}
}

// BenchmarkFigure9 regenerates figure 9: per-node monitor readings under
// worst-attack-1 (paper: master within 2% of backup on every correct node).
func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		readings := harness.Figure9(benchOptions())
		if len(readings) > 0 {
			b.ReportMetric(readings[1].MasterKreqS, "node1_master_kreq/s")
			b.ReportMetric(readings[1].AvgBackupKreqS, "node1_backup_kreq/s")
		}
	}
}

// BenchmarkFigure10 regenerates figure 10: RBFT under worst-attack-2
// (paper: loss <3% at f=1, <1% at f=2).
func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c1 := harness.Figure10(1, benchOptions())
		b.ReportMetric(c1.MinPct(), "f1_min_rel_%")
	}
}

// BenchmarkFigure11 regenerates figure 11: per-node monitor readings under
// worst-attack-2.
func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		readings := harness.Figure11(benchOptions())
		if len(readings) > 0 {
			b.ReportMetric(readings[0].MasterKreqS, "node1_master_kreq/s")
			b.ReportMetric(readings[0].AvgBackupKreqS, "node1_backup_kreq/s")
		}
	}
}

// BenchmarkFigure12 regenerates figure 12: the unfair-primary latency
// experiment (paper: instance change once a request exceeds Lambda=1.5ms).
func BenchmarkFigure12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.Figure12(benchOptions())
		b.ReportMetric(float64(r.MaxAttackedLatency)/1e6, "max_attacked_ms")
		b.ReportMetric(float64(r.InstanceChangeAt), "ic_at_request")
	}
}

// BenchmarkAblationOrderedPayload regenerates the §VI-B ablation: ordering
// request identifiers vs full 4kB requests (paper: 5 kreq/s vs 1.8 kreq/s).
func BenchmarkAblationOrderedPayload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.AblationOrderedPayload(benchOptions())
		b.ReportMetric(r.IdentifiersThroughput/1000, "ids_kreq/s")
		b.ReportMetric(r.FullThroughput/1000, "full_kreq/s")
	}
}

// BenchmarkAblationDelta sweeps the Δ threshold for worst-attack-2,
// quantifying the design choice of a tight ratio test.
func BenchmarkAblationDelta(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := harness.AblationDeltaSensitivity([]float64{0.80, 0.90, 0.97}, benchOptions())
		for _, r := range rows {
			b.ReportMetric(r.RelativePct, "rel%_at_delta_"+deltaLabel(r.Delta))
		}
	}
}

func deltaLabel(d float64) string {
	switch {
	case d < 0.85:
		return "0.80"
	case d < 0.95:
		return "0.90"
	default:
		return "0.97"
	}
}

// ---- micro-benchmarks of the hot paths ----

// BenchmarkCodecPrePrepare measures PRE-PREPARE marshal+decode (the hot
// ordering message).
func BenchmarkCodecPrePrepare(b *testing.B) {
	batch := make([]types.RequestRef, 64)
	for i := range batch {
		batch[i] = types.RequestRef{Client: types.ClientID(i), ID: types.RequestID(i)}
	}
	pp := &message.PrePrepare{Instance: 0, View: 3, Seq: 99, Batch: batch, Node: 1}
	pp.Auth = make(crypto.Authenticator, 4*crypto.MACSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wire := pp.Marshal(nil)
		if _, err := message.Decode(wire); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMACAuthenticator measures building a 4-entry MAC authenticator.
func BenchmarkMACAuthenticator(b *testing.B) {
	ks := crypto.NewKeyStore([]byte("bench"), 4, 1)
	ring := ks.NodeRing(0)
	body := make([]byte, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ring.AuthenticatorForNodes(4, body)
	}
}

// BenchmarkSignVerify measures the request signature path.
func BenchmarkSignVerify(b *testing.B) {
	ks := crypto.NewKeyStore([]byte("bench"), 4, 1)
	cl := ks.ClientRing(0)
	node := ks.NodeRing(0)
	body := make([]byte, 64)
	sig := cl.Sign(body)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := node.VerifyClientSignature(0, body, sig); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatedCluster measures simulator event throughput: virtual
// requests executed per wall second for a fault-free f=1 cluster.
func BenchmarkSimulatedCluster(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := sim.Config{
			F: 1, Cost: sim.DefaultCostModel(), Seed: int64(i + 1),
			BatchSize: 64, BatchTimeout: 2 * time.Millisecond,
			Monitoring: monitor.Config{Period: 250 * time.Millisecond, Delta: 0.9, MinRequests: 32},
			Workload:   sim.StaticLoad(4, 500, 8),
			Warmup:     100 * time.Millisecond,
		}
		res := sim.New(cfg).Run(500 * time.Millisecond)
		b.ReportMetric(float64(res.Completed), "virtual_reqs")
	}
}
