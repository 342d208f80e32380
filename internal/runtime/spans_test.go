package runtime

import (
	"testing"
	"time"

	"rbft/internal/obs"
	"rbft/internal/types"
)

// TestRuntimeEmitsLifecycleSpans drives a live durable cluster through a
// few requests and checks the runtime-owned lifecycle spans — ingress,
// preverify, execute, wal-durable, egress — land in the tracer with the
// same schema the simulator emits, so rbft-trace can analyze either.
func TestRuntimeEmitsLifecycleSpans(t *testing.T) {
	fr := obs.NewFlightRecorder(obs.DefaultRecorderSize)
	lc, err := StartLocalCluster(ClusterOptions{
		F:       1,
		Tracer:  fr,
		DataDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Stop)

	cr, err := lc.NewClient(1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cr.Stop)
	for i := 0; i < 5; i++ {
		if _, err := cr.Invoke(nil, 10*time.Second); err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
	}
	// A burst, which goes out in bundles and is answered in reply bundles:
	// every request still gets its own egress span.
	const burst = 20
	for i := 0; i < burst; i++ {
		cr.Submit(nil)
	}
	for i := 0; i < burst; i++ {
		select {
		case <-cr.Completions():
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d submitted requests completed", i, burst)
		}
	}

	// An egress worker records its spans after the send that lets the client
	// complete: read the recorder once Stop has joined the workers.
	lc.Stop()
	seen, egress := map[obs.Stage]int{}, map[types.RequestID]bool{}
	for _, ev := range fr.Events() {
		if ev.Type == obs.EvSpan {
			seen[ev.Stage]++
			if ev.Dur < 0 {
				t.Fatalf("negative span duration: %+v", ev)
			}
			if ev.Stage == obs.StageEgress {
				egress[ev.Req] = true
			}
		}
	}
	for id := types.RequestID(1); id <= 5+burst; id++ {
		if !egress[id] {
			t.Fatalf("request %d has no egress span", id)
		}
	}
	for _, st := range []obs.Stage{
		obs.StageIngress, obs.StagePreverify, obs.StagePropose,
		obs.StagePrepareQuorum, obs.StageCommitQuorum, obs.StageOrder,
		obs.StageExecute, obs.StageWALDurable, obs.StageEgress,
	} {
		if seen[st] == 0 {
			t.Fatalf("no %s spans recorded (saw %v)", st, seen)
		}
	}
	// Reply transit is unobservable server-side: a runtime trace must not
	// fabricate reply spans.
	if seen[obs.StageReply] != 0 {
		t.Fatalf("runtime emitted %d reply spans; reply transit is simulator-only", seen[obs.StageReply])
	}
}
