package core

import (
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"rbft/internal/message"
	"rbft/internal/obs"
)

// TestExecutedCountedOncePerRegistry installs on one registry both sources a
// deployment installs (rbft-node does): the node's own metrics and the
// trace-derived obs.MetricsTracer. /metrics must then count each execution
// once across every rbft_executed_total series, so that a sum over the
// series is the number of executions.
func TestExecutedCountedOncePerRegistry(t *testing.T) {
	nc := newNodeCluster(t, 1, nil)
	reg := obs.NewRegistry()
	nc.nodes[0].SetRegistry(reg)
	nc.nodes[0].SetTracer(obs.NewMetricsTracer(reg))
	for i := 0; i < 5; i++ {
		nc.sendRequest(1, []byte{0, 0, 0, 0, 0, 0, 0, 1})
	}
	nc.runFor(100 * time.Millisecond)
	executed := len(nc.executed[0])
	if executed != 5 {
		t.Fatalf("node 0 executed %d requests, want 5", executed)
	}

	rec := httptest.NewRecorder()
	obs.HTTPHandler(reg, nil).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	var sum float64
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if !strings.HasPrefix(line, "rbft_executed_total") {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("unparsable series %q: %v", line, err)
		}
		sum += v
	}
	if sum != float64(executed) {
		t.Fatalf("the rbft_executed_total series sum to %v for %d executions:\n%s", sum, executed, rec.Body.String())
	}
}

// TestEveryMessageTypeCounted pins that the per-type message counters follow
// message.Type's names: after SetRegistry, every type with a name has an in
// and an out counter, registered under that name.
func TestEveryMessageTypeCounted(t *testing.T) {
	nc := newNodeCluster(t, 1, nil)
	reg := obs.NewRegistry()
	n := nc.nodes[0]
	n.SetRegistry(reg)
	named := 0
	for i := 0; i < 256; i++ {
		ty := message.Type(i)
		if ty.String() == "UNKNOWN" {
			continue
		}
		named++
		if i >= len(n.msgsIn) {
			t.Fatalf("%s (tag %d) does not fit the %d per-type counters", ty, i, len(n.msgsIn))
		}
		if in := reg.Counter(obs.LabeledName("rbft_messages_in_total", "type", ty.String())); n.msgsIn[ty] != in {
			t.Errorf("%s (tag %d) has no rbft_messages_in_total counter", ty, i)
		}
		if out := reg.Counter(obs.LabeledName("rbft_messages_out_total", "type", ty.String())); n.msgsOut[ty] != out {
			t.Errorf("%s (tag %d) has no rbft_messages_out_total counter", ty, i)
		}
	}
	if named == 0 {
		t.Fatal("no message.Type has a name")
	}
}
