package obs

import (
	"bytes"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"rbft/internal/types"
)

func at(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }

// capture is a test sink recording every event.
type capture struct {
	events []Event
}

func (c *capture) Enabled() bool  { return true }
func (c *capture) Trace(ev Event) { c.events = append(c.events, ev) }
func (c *capture) last() Event    { return c.events[len(c.events)-1] }

func TestEventTypeRoundTrip(t *testing.T) {
	for typ := EvRequestReceived; typ <= EvNodeRestart; typ++ {
		name := typ.String()
		if strings.HasPrefix(name, "event(") {
			t.Fatalf("event type %d has no wire name", typ)
		}
		got, ok := ParseEventType(name)
		if !ok || got != typ {
			t.Fatalf("ParseEventType(%q) = %v, %v; want %v", name, got, ok, typ)
		}
	}
	if _, ok := ParseEventType("no-such-event"); ok {
		t.Fatal("ParseEventType accepted an unknown name")
	}
}

func TestNopAndWrappers(t *testing.T) {
	if (Nop{}).Enabled() {
		t.Fatal("Nop reports enabled")
	}
	if OrNop(nil) != (Nop{}) {
		t.Fatal("OrNop(nil) is not Nop")
	}
	if WithNode(nil, 1) != (Nop{}) || WithNode(Nop{}, 1) != (Nop{}) {
		t.Fatal("WithNode over a dead tracer should collapse to Nop")
	}
	if Multi() != (Nop{}) || Multi(nil, Nop{}) != (Nop{}) {
		t.Fatal("Multi over dead tracers should collapse to Nop")
	}

	var c capture
	tr := WithNode(&c, 3)
	if !tr.Enabled() {
		t.Fatal("WithNode over a live tracer must stay enabled")
	}
	tr.Trace(Event{Type: EvExecuted})
	if c.last().Node != 3 {
		t.Fatalf("WithNode did not stamp the node: %+v", c.last())
	}

	if got := Multi(&c); got != Tracer(&c) {
		t.Fatal("Multi with one live sink should return it unwrapped")
	}
	var c2 capture
	m := Multi(&c, &c2, nil)
	m.Trace(Event{Type: EvOrdered})
	if len(c2.events) != 1 || c.last().Type != EvOrdered {
		t.Fatal("Multi did not fan out to every live sink")
	}
}

func TestFlightRecorderWraps(t *testing.T) {
	fr := NewFlightRecorder(4)
	if !fr.Enabled() {
		t.Fatal("recorder must be enabled")
	}
	for i := 0; i < 6; i++ {
		fr.Trace(Event{Type: EvExecuted, Req: types.RequestID(i)})
	}
	got := fr.Events()
	if len(got) != 4 {
		t.Fatalf("recorder kept %d events, want 4", len(got))
	}
	for i, ev := range got {
		if want := types.RequestID(i + 2); ev.Req != want {
			t.Fatalf("event %d has req %d, want %d (oldest-first order broken)", i, ev.Req, want)
		}
	}
	if fr.Dropped() != 2 {
		t.Fatalf("Dropped() = %d, want 2", fr.Dropped())
	}
}

func TestRegistryNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(7)
	r.Histogram("z", LatencyBuckets).Observe(1)
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot must be empty")
	}
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter must read zero")
	}
}

func TestRegistrySnapshotDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total").Add(2)
	r.Counter("a_total").Inc()
	r.Gauge("c_gauge").Set(-4)
	h := r.Histogram("d_latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	snap := r.Snapshot()
	names := make([]string, len(snap))
	for i, m := range snap {
		names[i] = m.Name
	}
	want := []string{"a_total", "b_total", "c_gauge", "d_latency"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("snapshot order %v, want %v", names, want)
	}
	hist := snap[3]
	if hist.Count != 3 || hist.Sum != 5.55 {
		t.Fatalf("histogram count=%d sum=%v, want 3, 5.55", hist.Count, hist.Sum)
	}
	// Buckets are cumulative: <=0.1 has 1, <=1 has 2, +Inf has 3.
	counts := []uint64{hist.Buckets[0].Count, hist.Buckets[1].Count, hist.Buckets[2].Count}
	if !reflect.DeepEqual(counts, []uint64{1, 2, 3}) {
		t.Fatalf("cumulative buckets %v, want [1 2 3]", counts)
	}
	// Same instance on repeat lookup.
	if r.Counter("a_total") != r.Counter("a_total") {
		t.Fatal("repeated Counter lookups must return the same instance")
	}
}

func TestLabeledName(t *testing.T) {
	if got := LabeledName("m_total", "type", "PRE-PREPARE"); got != `m_total{type="PRE-PREPARE"}` {
		t.Fatalf("LabeledName = %q", got)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	events := []Event{
		{At: at(10), Type: EvRequestReceived, Node: 1, Client: 2, Req: 9},
		{At: at(20), Type: EvPrePrepare, Node: 0, Instance: 1, Seq: 3, View: 4, Count: 8},
		{At: at(30), Type: EvVerdict, Node: 2, Reason: "throughput-delta", Value: 0.42, Values: []float64{10, 24}},
		{At: at(40), Type: EvInstanceChangeComplete, Node: 2, CPI: 1, View: 1, Reason: "throughput-delta"},
		{At: at(50), Type: EvNICClose, Node: 0, Peer: 3},
	}
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	for _, ev := range events {
		w.Trace(ev)
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, events)
	}
}

func TestJSONLDeterministicBytes(t *testing.T) {
	emit := func() []byte {
		var buf bytes.Buffer
		w := NewJSONLWriter(&buf)
		w.Trace(Event{At: at(5), Type: EvOrdered, Node: 1, Instance: 0, Seq: 1, Count: 3})
		w.Trace(Event{At: at(6), Type: EvVerdict, Node: 1, Reason: "none", Value: 1, Values: []float64{3.5, 3.5}})
		return buf.Bytes()
	}
	if !bytes.Equal(emit(), emit()) {
		t.Fatal("identical event sequences serialized differently")
	}
}

func TestMetricsTracerDerivesMetrics(t *testing.T) {
	reg := NewRegistry()
	mt := NewMetricsTracer(reg)
	mt.Trace(Event{Type: EvOrdered, Instance: 0, Count: 3})
	mt.Trace(Event{Type: EvOrdered, Instance: 1, Count: 2})
	mt.Trace(Event{Type: EvOrdered, Instance: 0, Count: 1})
	mt.Trace(Event{Type: EvExecuted})
	mt.Trace(Event{Type: EvInstanceChangeStart, CPI: 0})
	mt.Trace(Event{Type: EvInstanceChangeComplete, CPI: 1, Reason: "throughput-delta"})
	mt.Trace(Event{Type: EvNICClose, Peer: 2})
	mt.Trace(Event{Type: EvMsgDrop, Peer: 2})

	check := func(name string, want uint64) {
		t.Helper()
		if got := reg.Counter(name).Value(); got != want {
			t.Fatalf("%s = %d, want %d", name, got, want)
		}
	}
	check(`rbft_ordered_total{instance="0"}`, 4)
	check(`rbft_ordered_total{instance="1"}`, 2)
	check("rbft_instance_change_votes_total", 1)
	check(`rbft_instance_changes_total{reason="throughput-delta"}`, 1)
	check("rbft_nic_closures_total", 1)
	check("rbft_messages_dropped_total", 1)
	// Executions are the node's to count, per lane, on the same registry.
	for _, m := range reg.Snapshot() {
		if strings.HasPrefix(m.Name, "rbft_executed_total") {
			t.Fatalf("the tracer registered %s: every execution would be served twice", m.Name)
		}
	}
}

func TestHTTPHandler(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("rbft_nic_closures_total").Add(41)
	reg.Histogram("rbft_batch_size", []float64{1, 2}).Observe(2)
	fr := NewFlightRecorder(8)
	fr.Trace(Event{At: at(1), Type: EvExecuted, Node: 0, Client: 1, Req: 7})

	h := HTTPHandler(reg, fr)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"rbft_nic_closures_total 41\n",
		`rbft_batch_size_bucket{le="2"} 1`,
		`rbft_batch_size_bucket{le="+Inf"} 1`,
		"rbft_batch_size_count 1\n",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics output missing %q:\n%s", want, body)
		}
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/events", nil))
	if !strings.Contains(rec.Body.String(), `"ev": "executed"`) {
		t.Fatalf("/debug/events output missing event: %s", rec.Body.String())
	}
}

func TestExplainInstanceChanges(t *testing.T) {
	events := []Event{
		{At: at(100), Type: EvVerdict, Node: 1, Reason: "none", Value: 1, Values: []float64{50, 50}},
		{At: at(200), Type: EvVerdict, Node: 1, Reason: "throughput-delta", Value: 0.4, Values: []float64{20, 50}},
		{At: at(200), Type: EvInstanceChangeStart, Node: 1, CPI: 0, Reason: "throughput-delta"},
		{At: at(201), Type: EvInstanceChangeStart, Node: 2, CPI: 0, Reason: "throughput-delta"},
		{At: at(202), Type: EvInstanceChangeStart, Node: 0, CPI: 0, Reason: "throughput-delta"},
		{At: at(203), Type: EvInstanceChangeComplete, Node: 1, CPI: 1, View: 1, Reason: "throughput-delta"},
		// A later Λ-triggered change on node 0.
		{At: at(300), Type: EvVerdict, Node: 0, Instance: 0, Client: 4, Req: 11, Reason: "latency-lambda", Value: 2.5},
		{At: at(301), Type: EvInstanceChangeStart, Node: 0, CPI: 1, Reason: "latency-lambda"},
		{At: at(305), Type: EvInstanceChangeComplete, Node: 0, CPI: 2, View: 2, Reason: "latency-lambda"},
	}
	exps := ExplainInstanceChanges(events)
	if len(exps) != 2 {
		t.Fatalf("got %d explanations, want 2", len(exps))
	}
	first := exps[0]
	if first.Node != 1 || first.Reason != "throughput-delta" || first.CPI != 1 {
		t.Fatalf("first explanation wrong: %+v", first)
	}
	if first.Ratio != 0.4 {
		t.Fatalf("first explanation ratio = %v, want 0.4", first.Ratio)
	}
	if len(first.RatioSeries) != 2 || !first.RatioSeries[1].Suspicious || first.RatioSeries[0].Suspicious {
		t.Fatalf("ratio series wrong: %+v", first.RatioSeries)
	}
	if !reflect.DeepEqual(first.Voters, []types.NodeID{1, 2, 0}) {
		t.Fatalf("voters = %v", first.Voters)
	}
	second := exps[1]
	if second.Reason != "latency-lambda" || second.Value != 2.5 || second.Client != 4 {
		t.Fatalf("second explanation wrong: %+v", second)
	}
	if !reflect.DeepEqual(second.Voters, []types.NodeID{0}) {
		t.Fatalf("second voters = %v", second.Voters)
	}
}

func TestTimelineAndSummary(t *testing.T) {
	events := []Event{
		{Type: EvRequestReceived, Node: 0},
		{Type: EvPrePrepare, Node: 0, Instance: 0},
		{Type: EvPrePrepare, Node: 0, Instance: 1},
		{Type: EvOrdered, Node: 1, Instance: 0},
	}
	tl := Timeline(events, 0, 1)
	if len(tl) != 1 || tl[0].Type != EvPrePrepare || tl[0].Instance != 1 {
		t.Fatalf("timeline filter wrong: %+v", tl)
	}
	all := Timeline(events, -1, -1)
	if len(all) != 4 {
		t.Fatalf("unfiltered timeline dropped events: %d", len(all))
	}
	s := Summarize(events)
	if s.Total != 4 || len(s.ByType) != 3 || s.ByType[1].Type != EvPrePrepare || s.ByType[1].Count != 2 {
		t.Fatalf("summary wrong: %+v", s)
	}
}
