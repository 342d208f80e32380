package core

import (
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

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
