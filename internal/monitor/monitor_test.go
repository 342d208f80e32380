package monitor

import (
	"testing"
	"time"

	"rbft/internal/types"
)

func ref(c types.ClientID, id types.RequestID) types.RequestRef {
	return types.RequestRef{Client: c, ID: id, Digest: types.Digest{byte(c), byte(id)}}
}

func TestDeltaTestFiresWhenMasterSlow(t *testing.T) {
	m := New(Config{Instances: 2, Period: 100 * time.Millisecond, Delta: 0.9, MinRequests: 5})
	now := time.Unix(0, 0)
	for i := 0; i < 20; i++ {
		r := ref(0, types.RequestID(i))
		m.RequestDispatched(0, now)
		m.RequestOrdered(1, r, now, now) // backup orders everything
		if i < 5 {
			m.RequestOrdered(0, r, now, now) // master orders only 25%
		}
	}
	v := m.Tick(now.Add(100 * time.Millisecond))
	if !v.Suspicious || v.Reason != ReasonThroughput {
		t.Fatalf("verdict = %+v, want throughput suspicion", v)
	}
	if v.Ratio < 0.2 || v.Ratio > 0.3 {
		t.Fatalf("ratio = %v, want 0.25", v.Ratio)
	}
}

func TestDeltaTestPassesWhenBalanced(t *testing.T) {
	m := New(Config{Instances: 2, Period: 100 * time.Millisecond, Delta: 0.9, MinRequests: 5})
	now := time.Unix(0, 0)
	for i := 0; i < 20; i++ {
		r := ref(0, types.RequestID(i))
		m.RequestDispatched(0, now)
		m.RequestOrdered(1, r, now, now)
		m.RequestOrdered(0, r, now, now)
	}
	if v := m.Tick(now.Add(100 * time.Millisecond)); v.Suspicious {
		t.Fatalf("balanced instances flagged: %+v", v)
	}
}

func TestDeltaTestSuppressedBelowMinRequests(t *testing.T) {
	m := New(Config{Instances: 2, Period: 100 * time.Millisecond, Delta: 0.9, MinRequests: 50})
	now := time.Unix(0, 0)
	for i := 0; i < 10; i++ {
		r := ref(0, types.RequestID(i))
		m.RequestDispatched(0, now)
		m.RequestOrdered(1, r, now, now)
	}
	if v := m.Tick(now.Add(100 * time.Millisecond)); v.Suspicious {
		t.Fatal("idle-period noise must not trigger the delta test")
	}
}

func TestTickBeforePeriodEndIsNoop(t *testing.T) {
	m := New(Config{Instances: 2, Period: 100 * time.Millisecond, MinRequests: 1})
	now := time.Unix(0, 0)
	r := ref(0, 1)
	m.RequestDispatched(0, now)
	m.RequestOrdered(1, r, now, now)
	if v := m.Tick(now.Add(50 * time.Millisecond)); v.Suspicious {
		t.Fatal("tick before period end must not evaluate")
	}
}

func TestLambdaTest(t *testing.T) {
	m := New(Config{Instances: 2, Lambda: time.Millisecond})
	now := time.Unix(0, 0)
	r := ref(0, 1)
	m.RequestDispatched(0, now)
	v := m.RequestOrdered(0, r, now, now.Add(2*time.Millisecond))
	if !v.Suspicious || v.Reason != ReasonLatency {
		t.Fatalf("verdict = %+v, want latency suspicion", v)
	}
	// Within the bound: fine.
	r2 := ref(0, 2)
	m.RequestDispatched(0, now)
	if v := m.RequestOrdered(0, r2, now, now.Add(500*time.Microsecond)); v.Suspicious {
		t.Fatalf("fast request flagged: %+v", v)
	}
}

func TestLambdaIgnoresBackupLatency(t *testing.T) {
	m := New(Config{Instances: 2, Lambda: time.Millisecond})
	now := time.Unix(0, 0)
	r := ref(0, 1)
	m.RequestDispatched(0, now)
	if v := m.RequestOrdered(1, r, now, now.Add(time.Hour)); v.Suspicious {
		t.Fatal("lambda applies only to master-ordered requests")
	}
}

func TestOmegaTest(t *testing.T) {
	m := New(Config{Instances: 2, Omega: time.Millisecond})
	now := time.Unix(0, 0)
	// Build up a history where the backup orders promptly but the master is
	// slow for this client.
	for i := 1; i <= 10; i++ {
		r := ref(3, types.RequestID(i))
		m.RequestDispatched(0, now)
		m.RequestOrdered(1, r, now, now.Add(100*time.Microsecond))
		v := m.RequestOrdered(0, r, now, now.Add(5*time.Millisecond))
		if i >= 2 && (!v.Suspicious || v.Reason != ReasonFairness) {
			t.Fatalf("request %d: verdict = %+v, want fairness suspicion", i, v)
		}
	}
}

func TestOmegaPassesWhenFair(t *testing.T) {
	m := New(Config{Instances: 2, Omega: time.Millisecond})
	now := time.Unix(0, 0)
	for i := 1; i <= 10; i++ {
		r := ref(3, types.RequestID(i))
		m.RequestDispatched(0, now)
		m.RequestOrdered(1, r, now, now.Add(100*time.Microsecond))
		if v := m.RequestOrdered(0, r, now, now.Add(200*time.Microsecond)); v.Suspicious {
			t.Fatalf("fair master flagged: %+v", v)
		}
	}
}

func TestThroughputReporting(t *testing.T) {
	m := New(Config{Instances: 2, Period: time.Second, MinRequests: 1})
	now := time.Unix(0, 0)
	for i := 0; i < 100; i++ {
		r := ref(0, types.RequestID(i))
		m.RequestDispatched(0, now)
		m.RequestOrdered(0, r, now, now)
		m.RequestOrdered(1, r, now, now)
	}
	m.Tick(now.Add(time.Second))
	tp := m.Throughput()
	if len(tp) != 2 || tp[0] != 100 || tp[1] != 100 {
		t.Fatalf("throughput = %v, want [100 100]", tp)
	}
}

func TestResetClearsCountsButKeepsDispatch(t *testing.T) {
	m := New(Config{Instances: 2, Period: time.Second, MinRequests: 1, Lambda: time.Hour})
	now := time.Unix(0, 0)
	r := ref(0, 1)
	m.RequestDispatched(0, now)
	m.Reset(now.Add(time.Millisecond))
	// The in-flight request still completes and is measured.
	v := m.RequestOrdered(0, r, now, now.Add(2*time.Millisecond))
	if v.Suspicious {
		t.Fatalf("unexpected suspicion after reset: %+v", v)
	}
	if m.NextWake().IsZero() {
		t.Fatal("monitor must stay armed after reset")
	}
}

func TestReasonString(t *testing.T) {
	for r, want := range map[Reason]string{
		ReasonNone:       "none",
		ReasonThroughput: "throughput-delta",
		ReasonLatency:    "latency-lambda",
		ReasonFairness:   "fairness-omega",
	} {
		if got := r.String(); got != want {
			t.Errorf("Reason(%d).String() = %q, want %q", int(r), got, want)
		}
	}
}

func TestParseReasonRoundTrip(t *testing.T) {
	for _, r := range []Reason{ReasonNone, ReasonThroughput, ReasonLatency, ReasonFairness} {
		got, ok := ParseReason(r.String())
		if !ok || got != r {
			t.Errorf("ParseReason(%q) = (%v, %v), want (%v, true)", r.String(), got, ok, r)
		}
	}
	if got, ok := ParseReason("not-a-reason"); ok {
		t.Errorf("ParseReason accepted unknown string as %v", got)
	}
	if got, ok := ParseReason(""); ok {
		t.Errorf("ParseReason accepted empty string as %v", got)
	}
}

func TestRecordLatenciesAccumulates(t *testing.T) {
	m := New(Config{Instances: 2, Period: time.Second, RecordLatencies: true})
	now := time.Unix(0, 0)
	want := []time.Duration{time.Millisecond, 3 * time.Millisecond, 2 * time.Millisecond}
	for i, lat := range want {
		r := ref(1, types.RequestID(i+1))
		m.RequestDispatched(0, now)
		// A backup ordering must not enter the log; only the master's does.
		m.RequestOrdered(1, r, now, now.Add(lat/2))
		m.RequestOrdered(0, r, now, now.Add(lat))
	}
	log := m.LatencyLog()
	if len(log) != len(want) {
		t.Fatalf("latency log has %d records, want %d", len(log), len(want))
	}
	for i, rec := range log {
		if rec.Latency != want[i] || rec.Client != 1 || rec.ID != types.RequestID(i+1) {
			t.Fatalf("record %d = %+v, want latency %v client 1 id %d", i, rec, want[i], i+1)
		}
	}

	// With recording off the log stays empty under the same traffic.
	m = New(Config{Instances: 2, Period: time.Second})
	r := ref(1, 1)
	m.RequestDispatched(0, now)
	m.RequestOrdered(0, r, now, now.Add(time.Millisecond))
	if got := m.LatencyLog(); len(got) != 0 {
		t.Fatalf("latency log populated without RecordLatencies: %+v", got)
	}
}

func TestMasterSilentRatioZero(t *testing.T) {
	m := New(Config{Instances: 3, Period: 100 * time.Millisecond, Delta: 0.9, MinRequests: 5})
	now := time.Unix(0, 0)
	for i := 0; i < 30; i++ {
		r := ref(0, types.RequestID(i))
		m.RequestDispatched(0, now)
		m.RequestOrdered(1, r, now, now)
		m.RequestOrdered(2, r, now, now)
	}
	v := m.Tick(now.Add(100 * time.Millisecond))
	if !v.Suspicious || v.Ratio != 0 {
		t.Fatalf("silent master: verdict = %+v, want ratio 0 suspicion", v)
	}
}

// TestPerLaneDeltaFiresOnSlowPartitionOwner: in per-lane mode each instance
// orders a disjoint partition, so the Δ test compares per-lane completion
// ratios (ordered/dispatched); a lane completing a much smaller fraction of
// its own partition marks its owner.
func TestPerLaneDeltaFiresOnSlowPartitionOwner(t *testing.T) {
	m := New(Config{Instances: 2, Period: 100 * time.Millisecond, Delta: 0.9, MinRequests: 5, PerLane: true})
	now := time.Unix(0, 0)
	for i := 0; i < 20; i++ {
		// Even clients on lane 0, odd on lane 1 — lane 1 orders only 25%.
		r0 := ref(2, types.RequestID(i))
		m.RequestDispatched(0, now)
		m.RequestOrdered(0, r0, now, now)
		r1 := ref(1, types.RequestID(i))
		m.RequestDispatched(1, now)
		if i < 5 {
			m.RequestOrdered(1, r1, now, now)
		}
	}
	v := m.Tick(now.Add(100 * time.Millisecond))
	if !v.Suspicious || v.Reason != ReasonThroughput {
		t.Fatalf("verdict = %+v, want throughput suspicion", v)
	}
	if v.Ratio < 0.2 || v.Ratio > 0.3 {
		t.Fatalf("ratio = %v, want 0.25 (worst/best completion)", v.Ratio)
	}
}

// TestPerLaneDeltaToleratesImbalancedPartitions: raw count ratios would
// accuse a lane that simply owns a smaller partition; completion ratios must
// not.
func TestPerLaneDeltaToleratesImbalancedPartitions(t *testing.T) {
	m := New(Config{Instances: 2, Period: 100 * time.Millisecond, Delta: 0.9, MinRequests: 5, PerLane: true})
	now := time.Unix(0, 0)
	// Lane 0 owns 4x the load of lane 1; both complete everything.
	for i := 0; i < 20; i++ {
		r := ref(2, types.RequestID(i))
		m.RequestDispatched(0, now)
		m.RequestOrdered(0, r, now, now)
	}
	for i := 0; i < 5; i++ {
		r := ref(1, types.RequestID(i))
		m.RequestDispatched(1, now)
		m.RequestOrdered(1, r, now, now)
	}
	v := m.Tick(now.Add(100 * time.Millisecond))
	if v.Suspicious {
		t.Fatalf("verdict = %+v: imbalanced but healthy partitions accused", v)
	}
	if v.Ratio != 1 {
		t.Fatalf("ratio = %v, want 1", v.Ratio)
	}
}

// TestPerLaneDeltaSuppressedBelowMinRequests: a lane with too few dispatches
// in the period neither accuses nor excuses.
func TestPerLaneDeltaSuppressedBelowMinRequests(t *testing.T) {
	m := New(Config{Instances: 2, Period: 100 * time.Millisecond, Delta: 0.9, MinRequests: 10, PerLane: true})
	now := time.Unix(0, 0)
	for i := 0; i < 20; i++ {
		r := ref(2, types.RequestID(i))
		m.RequestDispatched(0, now)
		m.RequestOrdered(0, r, now, now)
	}
	// Lane 1: 5 dispatches (below MinRequests), none ordered.
	for i := 0; i < 5; i++ {
		m.RequestDispatched(1, now)
	}
	v := m.Tick(now.Add(100 * time.Millisecond))
	if v.Suspicious {
		t.Fatalf("verdict = %+v, want suppression below MinRequests", v)
	}
}

// TestPerLaneBackupOrderingCompletesRequest: in per-lane mode a backup
// lane's delivery completes the request: the latency tests run on it.
func TestPerLaneBackupOrderingCompletesRequest(t *testing.T) {
	m := New(Config{Instances: 2, Period: 100 * time.Millisecond, Delta: 0.9, MinRequests: 5,
		PerLane: true, Lambda: time.Millisecond})
	now := time.Unix(0, 0)
	r := ref(1, 1)
	m.RequestDispatched(1, now)
	v := m.RequestOrdered(1, r, now, now.Add(5*time.Millisecond))
	if !v.Suspicious || v.Reason != ReasonLatency {
		t.Fatalf("verdict = %+v, want Λ violation on the owning backup lane", v)
	}
}
