package runtime

import (
	"fmt"
	"testing"
	"time"

	"rbft/internal/app"
	"rbft/internal/client"
	"rbft/internal/core"
	"rbft/internal/crypto"
	"rbft/internal/message"
	"rbft/internal/obs"
	"rbft/internal/types"
)

// TestParallelExecutionEndToEnd runs a live cluster with the wave scheduler
// engaged (KV app + ExecWorkers) under a conflict-mixed workload and checks
// that every node converges to the same store and every reply is correct.
func TestParallelExecutionEndToEnd(t *testing.T) {
	var kvs []*app.KV
	lc, err := StartLocalCluster(ClusterOptions{
		F: 1,
		NewApp: func(n types.NodeID) app.Application {
			kv := app.NewKV()
			kvs = append(kvs, kv)
			return kv
		},
		ExecWorkers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Stop)

	cr, err := lc.NewClient(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		for _, op := range []string{
			fmt.Sprintf("PUT hot v%d", i),
			fmt.Sprintf("PUT k%d x", i),
			"GET hot",
		} {
			done, err := cr.Invoke([]byte(op), 10*time.Second)
			if err != nil {
				t.Fatalf("%q: %v", op, err)
			}
			if op == "GET hot" {
				if want := fmt.Sprintf("v%d", i); string(done.Result) != want {
					t.Fatalf("GET hot = %q, want %q", done.Result, want)
				}
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		want := fmt.Sprint(kvs[0].Snapshot())
		same := kvs[0].Len() == 11
		for i := 1; i < len(kvs); i++ {
			if fmt.Sprint(kvs[i].Snapshot()) != want {
				same = false
			}
		}
		if same {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("stores did not converge: node 0 has %d keys", kvs[0].Len())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestInstrumentAppPreservesConflictKeyer: wrapping a keyed application for
// span tracing must not hide its ConflictKeyer — otherwise turning on
// observability would silently disable parallel execution.
func TestInstrumentAppPreservesConflictKeyer(t *testing.T) {
	rec := obs.NewFlightRecorder(16)
	wrapped := InstrumentApp(app.NewKV(), rec, 0)
	k, ok := wrapped.(app.ConflictKeyer)
	if !ok {
		t.Fatal("instrumented KV lost its ConflictKeyer")
	}
	reads, writes := k.Keys([]byte("GET a"))
	if len(reads) != 1 || reads[0] != "a" || len(writes) != 0 {
		t.Fatalf("forwarded Keys = (%v, %v), want ([a], [])", reads, writes)
	}
	if _, ok := InstrumentApp(app.Null{}, rec, 0).(app.ConflictKeyer); ok {
		t.Fatal("instrumented Null gained a ConflictKeyer it never had")
	}
}

// TestInstrumentAppPreservesReadExecutor: wrapping an application for span
// tracing must not hide its read fast path — otherwise a node started with a
// span-wanting tracer would drop every READ-REQUEST.
func TestInstrumentAppPreservesReadExecutor(t *testing.T) {
	rec := obs.NewFlightRecorder(16)
	kv := app.NewKV()
	kv.Execute(1, 1, []byte("PUT a 1"))
	wrapped := InstrumentApp(kv, rec, 0)
	re, ok := wrapped.(app.ReadExecutor)
	if !ok {
		t.Fatal("instrumented KV lost its ReadExecutor")
	}
	if got, ok := re.ExecuteRead([]byte("GET a")); !ok || string(got) != "1" {
		t.Fatalf("forwarded ExecuteRead = (%q, %v), want (\"1\", true)", got, ok)
	}
	if _, ok := InstrumentApp(app.Null{}, rec, 0).(app.ReadExecutor).ExecuteRead([]byte("GET a")); ok {
		t.Fatal("instrumented Null answered a read it has no path for")
	}

	// A node built on the wrapped application answers a read-only request.
	cluster := types.NewConfig(1)
	ks := crypto.NewKeyStore([]byte("instrument-test"), cluster.N, 2)
	node := core.New(core.Config{Cluster: cluster, Node: 0, App: wrapped}, ks.NodeRing(0))
	cl := client.New(client.Config{Cluster: cluster, ID: 1}, ks.ClientRing(1))
	now := time.Unix(0, 0)
	req := cl.NewReadRequest([]byte("GET a"), now)
	v, err := node.Preverifier().PreverifyClientFrame(req.Marshal(nil), req.Client)
	if err != nil {
		t.Fatal(err)
	}
	out := node.OnVerified(v, now)
	if len(out.ClientMsgs) != 1 {
		t.Fatalf("read-only request got %d replies, want 1", len(out.ClientMsgs))
	}
	if rep := out.ClientMsgs[0].Msg.(*message.Reply); string(rep.Result) != "1" {
		t.Fatalf("read reply = %q, want %q", rep.Result, "1")
	}
}
