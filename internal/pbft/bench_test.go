package pbft

import (
	"testing"
	"time"

	"rbft/internal/crypto"
	"rbft/internal/obs"
	"rbft/internal/types"
)

// benchOrdering measures the full four-replica ordering pipeline in-process:
// requests per second through AddRequest → PRE-PREPARE → PREPARE → COMMIT →
// delivery, with real HMAC authenticators. tr, when non-nil, is installed on
// every replica.
func benchOrdering(b *testing.B, tr obs.Tracer) {
	cfg := types.NewConfig(1)
	ks := crypto.NewKeyStore([]byte("bench"), cfg.N, 1)
	replicas := make([]*Instance, cfg.N)
	for n := 0; n < cfg.N; n++ {
		replicas[n] = New(Config{
			Cluster:      cfg,
			Instance:     0,
			Node:         types.NodeID(n),
			BatchSize:    64,
			BatchTimeout: time.Millisecond,
		}, ks.NodeRing(types.NodeID(n)))
		if tr != nil {
			replicas[n].SetTracer(tr)
		}
	}
	now := time.Unix(0, 0)
	var queue []Outbound
	var queueFrom []types.NodeID
	collect := func(from types.NodeID, out Output) {
		for _, m := range out.Msgs {
			queue = append(queue, m)
			queueFrom = append(queueFrom, from)
		}
	}
	drain := func() {
		for len(queue) > 0 {
			m := queue[0]
			from := queueFrom[0]
			queue = queue[1:]
			queueFrom = queueFrom[1:]
			targets := m.To
			if targets == nil {
				for n := 0; n < cfg.N; n++ {
					if types.NodeID(n) != from {
						targets = append(targets, types.NodeID(n))
					}
				}
			}
			for _, to := range targets {
				out, _ := replicas[to].OnMessage(m.Msg, now)
				collect(to, out)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref := types.RequestRef{Client: 0, ID: types.RequestID(i + 1)}
		ref.Digest[0] = byte(i)
		for n := range replicas {
			collect(types.NodeID(n), replicas[n].AddRequest(ref, now))
		}
		drain()
		if i%64 == 63 {
			// Fire batch timers.
			now = now.Add(2 * time.Millisecond)
			for n := range replicas {
				collect(types.NodeID(n), replicas[n].Tick(now))
			}
			drain()
		}
	}
}

// BenchmarkInstanceOrdering is the default configuration: the no-op tracer.
// Event structs are only built behind Enabled() guards, so this must stay
// within noise (<2%) of an uninstrumented pipeline — compare against
// BenchmarkInstanceOrderingRecorded to see the cost a live sink adds.
func BenchmarkInstanceOrdering(b *testing.B) {
	benchOrdering(b, nil)
}

// BenchmarkInstanceOrderingRecorded runs the same pipeline with a flight
// recorder attached, quantifying the overhead of a live trace sink.
func BenchmarkInstanceOrderingRecorded(b *testing.B) {
	benchOrdering(b, obs.NewFlightRecorder(obs.DefaultRecorderSize))
}

// TestOrderBatchAllocationBudget puts a ceiling on what ordering one batch
// allocates across four replicas (scripts/ci.sh's allocation gate):
// AddRequest on each, then PRE-PREPARE, three PREPAREs and four COMMITs to
// delivery everywhere, real authenticators and testCluster's in-memory queue
// included. Each step appends to the one Output its entry point owns, and
// the sequence's slot was allocated with the ring in New, so what a step
// allocates is its messages plus that Output's slices.
func TestOrderBatchAllocationBudget(t *testing.T) {
	tc := newTestCluster(t, 1, func(c *Config) { c.BatchSize = 1 })
	id := types.RequestID(0)
	orderOne := func() {
		for n := range tc.replicas {
			tc.delivered[types.NodeID(n)] = tc.delivered[types.NodeID(n)][:0]
		}
		id++
		tc.addRequest(ref(0, id))
		for n := range tc.replicas {
			if got := len(tc.delivered[types.NodeID(n)]); got != 1 {
				t.Fatalf("node %d delivered %d batches, want 1", n, got)
			}
		}
	}
	orderOne()
	const ceiling = 42
	n := testing.AllocsPerRun(200, orderOne)
	t.Logf("%v allocs", n)
	if n > ceiling {
		t.Errorf("one batch through four replicas: %v allocs, want <= %d", n, ceiling)
	}
}
