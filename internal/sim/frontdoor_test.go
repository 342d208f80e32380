package sim

import (
	"bytes"
	"testing"
	"time"

	"rbft/internal/obs"
	"rbft/internal/types"
)

// frontdoorConfig is a read-heavy KV scenario: high ReadFraction over a
// Zipfian population, with the speculative fast path toggleable.
func frontdoorConfig(seed int64, speculative bool) Config {
	cfg := baseConfig(1, 32, 6, 400)
	cfg.Seed = seed
	cfg.SpeculativeReads = speculative
	cfg.Workload.KV = &KVWorkload{Keys: 1024, ZipfS: 1.1, ReadFraction: 0.9}
	return cfg
}

// TestSpeculativeReadsComplete: with the fast path on, a read-heavy workload
// completes (reads accepted on the 2f+1 read quorum, writes ordered
// normally) and the protocol stays fault-free — speculation must never
// destabilise the monitored instances.
func TestSpeculativeReadsComplete(t *testing.T) {
	res := New(frontdoorConfig(7, true)).Run(2 * time.Second)
	if res.Completed == 0 {
		t.Fatal("speculative run completed no requests")
	}
	if len(res.InstanceChanges) != 0 {
		t.Fatalf("speculative run triggered %d instance changes, want 0", len(res.InstanceChanges))
	}
}

// TestSpeculativeReadsByteIdentical is the determinism gate for the fast
// path: two same-seed speculative runs must produce byte-identical results
// and JSONL traces.
func TestSpeculativeReadsByteIdentical(t *testing.T) {
	run := func(seed int64) ([]byte, []byte) {
		var buf bytes.Buffer
		w := obs.NewJSONLWriter(&buf)
		cfg := frontdoorConfig(seed, true)
		cfg.Trace = w
		res := New(cfg).Run(2 * time.Second)
		if err := w.Err(); err != nil {
			t.Fatalf("trace writer: %v", err)
		}
		return serialize(t, res), buf.Bytes()
	}
	resA, traceA := run(7)
	resB, traceB := run(7)
	if !bytes.Equal(resA, resB) {
		t.Fatalf("same seed produced different results:\n run1: %s\n run2: %s", resA, resB)
	}
	if !bytes.Equal(traceA, traceB) {
		t.Fatal("same seed produced different JSONL traces with speculative reads on")
	}
	resC, _ := run(8)
	if bytes.Equal(resA, resC) {
		t.Fatal("different seeds produced byte-identical traces; the check is vacuous")
	}
}

// TestSpeculativeFlagInertWithoutReads: with no read-only traffic the
// SpeculativeReads flag must be invisible — the trace of a write-only
// workload is byte-identical whichever way it is set. This is the guarantee
// that lets the flag default on in deployments without re-validating every
// existing trace.
func TestSpeculativeFlagInertWithoutReads(t *testing.T) {
	run := func(speculative bool, mode types.OrderingMode) []byte {
		var buf bytes.Buffer
		w := obs.NewJSONLWriter(&buf)
		cfg := frontdoorConfig(7, speculative)
		cfg.OrderingMode = mode
		cfg.Workload.KV.ReadFraction = 0
		cfg.Trace = w
		New(cfg).Run(2 * time.Second)
		if err := w.Err(); err != nil {
			t.Fatalf("trace writer: %v", err)
		}
		return buf.Bytes()
	}
	for _, mode := range []types.OrderingMode{types.OrderingMasterOnly, types.OrderingMultiPrimary} {
		if !bytes.Equal(run(false, mode), run(true, mode)) {
			t.Fatalf("SpeculativeReads changed a %v trace that carries no read-only traffic", mode)
		}
	}
}

// TestOpenLoopMillionClientFrontDoor is the tentpole's scale gate: a
// million-client open-loop population against a 4096-entry client table. The
// run must complete requests, stay fault-free, and every node's resident
// client table must stay within the configured bound even though the arrival
// process touches far more distinct clients than the table can hold.
func TestOpenLoopMillionClientFrontDoor(t *testing.T) {
	if testing.Short() {
		t.Skip("million-client open-loop run")
	}
	cfg := baseConfig(1, 8, 0, 0)
	cfg.Seed = 11
	cfg.MaxClients = 4096
	cfg.CheckpointInterval = 128
	cfg.WatermarkWindow = 1024
	cfg.Workload = Workload{
		RequestSize: 8,
		Phases: []Phase{{
			OpenLoop:      true,
			Clients:       1_000_000,
			RatePerClient: 0.01, // 10k aggregate arrivals/s
		}},
	}
	s := New(cfg)
	regs := make([]*obs.Registry, len(s.nodes))
	for i, sn := range s.nodes {
		regs[i] = obs.NewRegistry()
		sn.node.SetRegistry(regs[i])
	}
	res := s.Run(2 * time.Second)
	if res.Completed == 0 {
		t.Fatal("million-client run completed no requests")
	}
	if len(res.InstanceChanges) != 0 {
		t.Fatalf("million-client run triggered %d instance changes, want 0", len(res.InstanceChanges))
	}
	// ~20k distinct clients sent; a table that held them all would be 5x the
	// bound, so staying under it proves eviction is working on every node.
	for i, reg := range regs {
		if got := s.Node(types.NodeID(i)).ClientCount(); got > cfg.MaxClients {
			t.Fatalf("node %d client table holds %d entries, bound %d", i, got, cfg.MaxClients)
		}
		if got := reg.Counter("rbft_client_evictions_total").Value(); got == 0 {
			t.Fatalf("node %d evicted no client; the bound was never reached", i)
		}
	}
}
