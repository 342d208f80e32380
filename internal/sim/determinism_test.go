package sim

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"rbft/internal/core"
	"rbft/internal/obs"
	"rbft/internal/pbft"
	"rbft/internal/types"
)

// determinismScenario is a deliberately rich configuration: an attack (the
// master primary throttles), monitor sampling, and a per-request latency
// series, so the byte-level comparison covers every trace the simulator can
// produce, not just the summary counters.
func determinismScenario(seed int64) Config {
	cfg := baseConfig(1, 8, 4, 500)
	cfg.Seed = seed
	cfg.TrackClientLatency = true
	cfg.MonitorSampleEvery = 100 * time.Millisecond
	cfg.NodeBehavior = map[types.NodeID]core.Behavior{
		0: {Instance: map[types.InstanceID]pbft.Behavior{
			types.MasterInstance: {ProposeRate: 640}, // one 64-ref batch per 100 ms
		}},
	}
	return cfg
}

// serialize renders a full Result — metrics, instance-change records,
// monitor samples and the client latency series — into a canonical byte
// form for exact comparison.
func serialize(t *testing.T, r *Result) []byte {
	t.Helper()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("serializing result: %v", err)
	}
	return data
}

// TestSimulationByteIdenticalAcrossRuns is the determinism gate: two
// in-process runs of the same seeded scenario must produce byte-identical
// serialized results. Any hidden dependence on wall-clock time, map
// iteration order or scheduler interleaving shows up here as a diff.
func TestSimulationByteIdenticalAcrossRuns(t *testing.T) {
	run := func() []byte {
		return serialize(t, New(determinismScenario(7)).Run(2*time.Second))
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed produced different traces:\n run1: %s\n run2: %s", a, b)
	}
	// Sanity: the scenario actually exercised the interesting paths, so a
	// future regression cannot hide behind an empty trace.
	var res Result
	if err := json.Unmarshal(a, &res); err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("scenario completed no requests")
	}
	if len(res.InstanceChanges) == 0 {
		t.Fatal("throttling attack triggered no instance change")
	}
	if len(res.MonitorSamples) == 0 {
		t.Fatal("no monitor samples recorded")
	}
	if len(res.ClientSeries) == 0 {
		t.Fatal("no client latency series recorded")
	}
}

// TestSimulationSeedChangesTrace guards against the comparison becoming
// vacuous: a different seed must perturb the trace. The seed feeds client
// jitter, so at minimum the latency series shifts.
func TestSimulationSeedChangesTrace(t *testing.T) {
	a := serialize(t, New(determinismScenario(7)).Run(2*time.Second))
	c := serialize(t, New(determinismScenario(8)).Run(2*time.Second))
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced byte-identical traces; the determinism check is vacuous")
	}
}

// runWithJSONL runs the determinism scenario with a JSONL trace sink
// attached and returns the raw trace bytes alongside the summary result.
func runWithJSONL(t *testing.T, seed int64) ([]byte, *Result) {
	t.Helper()
	var buf bytes.Buffer
	w := obs.NewJSONLWriter(&buf)
	cfg := determinismScenario(seed)
	cfg.Trace = w
	res := New(cfg).Run(2 * time.Second)
	if err := w.Err(); err != nil {
		t.Fatalf("trace writer: %v", err)
	}
	return buf.Bytes(), res
}

// TestJSONLTraceByteIdenticalAcrossRuns extends the determinism gate to the
// event trace itself: two same-seed attacked runs must emit byte-identical
// JSONL, because events are stamped with virtual time and serialized with a
// fixed field order.
func TestJSONLTraceByteIdenticalAcrossRuns(t *testing.T) {
	a, _ := runWithJSONL(t, 7)
	b, _ := runWithJSONL(t, 7)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different JSONL traces")
	}
	if len(a) == 0 {
		t.Fatal("scenario emitted no trace events")
	}
	c, _ := runWithJSONL(t, 8)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced byte-identical JSONL traces; the check is vacuous")
	}
}

// TestTraceForensicsMatchesResult is the end-to-end acceptance check for the
// forensics pipeline: the explanations reconstructed from the JSONL trace
// must name the same monitor.Reason for every instance change the simulator
// recorded, and a throughput-delta change must carry a measured ratio below
// the configured Delta threshold.
func TestTraceForensicsMatchesResult(t *testing.T) {
	raw, res := runWithJSONL(t, 7)
	events, err := obs.ReadTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("reading trace back: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("trace round-tripped to zero events")
	}
	expl := obs.ExplainInstanceChanges(events)
	if len(expl) != len(res.InstanceChanges) {
		t.Fatalf("forensics found %d instance changes, result recorded %d",
			len(expl), len(res.InstanceChanges))
	}
	if len(expl) == 0 {
		t.Fatal("throttling attack produced no instance changes to explain")
	}
	delta := determinismScenario(7).Monitoring.Delta
	for i, e := range expl {
		ic := res.InstanceChanges[i]
		if e.Node != ic.Node || e.CPI != ic.CPI || e.NewView != ic.NewView {
			t.Fatalf("explanation %d = %+v does not match record %+v", i, e, ic)
		}
		if e.Reason != ic.Reason.String() {
			t.Fatalf("explanation %d reason %q, result recorded %q", i, e.Reason, ic.Reason)
		}
		if e.Reason == "throughput-delta" {
			if e.Ratio <= 0 || e.Ratio >= delta {
				t.Fatalf("explanation %d: measured ratio %.3f not in (0, %.2f)", i, e.Ratio, delta)
			}
			if len(e.RatioSeries) == 0 {
				t.Fatalf("explanation %d has no ratio series", i)
			}
		}
		if len(e.Voters) == 0 {
			t.Fatalf("explanation %d reconstructed no voters", i)
		}
	}
}

// crashScenario layers the modelled WAL and deterministic crash/restart
// events on top of the attacked determinism scenario, so the byte-identical
// gate also covers the durability and recovery paths.
func crashScenario(seed int64) Config {
	cfg := determinismScenario(seed)
	cfg.Durability = DurabilityGroupCommit
	cfg.Cost.FsyncLatency = 100 * time.Microsecond
	cfg.Cost.DiskBandwidth = 500e6
	cfg.CheckpointInterval = 16
	cfg.Crashes = []Crash{
		{Node: 2, At: time.Unix(0, 0).Add(600 * time.Millisecond), Down: 250 * time.Millisecond},
		{Node: 1, At: time.Unix(0, 0).Add(1300 * time.Millisecond), Down: 150 * time.Millisecond},
	}
	return cfg
}

// TestCrashRestartByteIdenticalAcrossRuns is the determinism gate for the
// durability subsystem: same-seed runs with crashes, WAL flushes and
// recovery replay must produce byte-identical results. Epoch-guarded event
// cancellation, group-commit batching and restore order all feed this.
func TestCrashRestartByteIdenticalAcrossRuns(t *testing.T) {
	run := func() []byte {
		return serialize(t, New(crashScenario(11)).Run(2*time.Second))
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed produced different crash/restart traces:\n run1: %s\n run2: %s", a, b)
	}
	var res Result
	if err := json.Unmarshal(a, &res); err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("crash scenario completed no requests")
	}
	c := serialize(t, New(crashScenario(12)).Run(2*time.Second))
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced byte-identical crash traces; the check is vacuous")
	}
}

// TestCrashRestartJSONLByteIdentical extends the crash/restart gate to the
// raw event trace, which now includes node-crash and node-restart events.
func TestCrashRestartJSONLByteIdentical(t *testing.T) {
	run := func() []byte {
		var buf bytes.Buffer
		w := obs.NewJSONLWriter(&buf)
		cfg := crashScenario(11)
		cfg.Trace = w
		New(cfg).Run(2 * time.Second)
		if err := w.Err(); err != nil {
			t.Fatalf("trace writer: %v", err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different crash/restart JSONL traces")
	}
	if !bytes.Contains(a, []byte("node-crash")) || !bytes.Contains(a, []byte("node-restart")) {
		t.Fatal("trace carries no crash/restart events; the gate is not exercising recovery")
	}
}
