package sim

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"rbft/internal/obs"
)

func TestPacketCostIncludesOverhead(t *testing.T) {
	c := DefaultCostModel()
	if c.PacketOverheadBytes != 0 {
		t.Fatalf("default PacketOverheadBytes %d, want 0 (legacy traces must stay unchanged)", c.PacketOverheadBytes)
	}
	if got, want := c.PacketCost(1000), c.Serialization(1000); got != want {
		t.Fatalf("zero-overhead PacketCost %v, want Serialization %v", got, want)
	}
	c.PacketOverheadBytes = 66
	if got, want := c.PacketCost(1000), c.Serialization(1066); got != want {
		t.Fatalf("PacketCost %v, want Serialization(payload+overhead) %v", got, want)
	}
	// k payloads in one frame pay the overhead once; k frames pay it k times.
	coalesced := c.PacketCost(10 * 100)
	var individual time.Duration
	for i := 0; i < 10; i++ {
		individual += c.PacketCost(100)
	}
	if coalesced >= individual {
		t.Fatalf("coalesced frame %v not cheaper than %v of individual frames", coalesced, individual)
	}
}

// egressScenario is a wire-bound configuration: a slow link and realistic
// per-packet overhead, so framing policy (per-message vs coalesced) is what
// decides throughput.
func egressScenario(seed int64, coalesce int) Config {
	cfg := baseConfig(1, 8, 8, 4000)
	cfg.Seed = seed
	cfg.Cost.PacketOverheadBytes = 66
	cfg.Cost.LinkBandwidth = 2e6 // ~16 Mbit/s: the wire is the bottleneck
	cfg.EgressCoalesce = coalesce
	return cfg
}

// TestEgressCoalescingAmortizesOverhead pins the modelled win: with the wire
// as the bottleneck and per-packet overhead charged, the coalescing egress
// must order strictly more requests than the per-message egress in the same
// virtual time.
func TestEgressCoalescingAmortizesOverhead(t *testing.T) {
	perMessage := New(egressScenario(3, 0)).Run(2 * time.Second)
	coalesced := New(egressScenario(3, 64)).Run(2 * time.Second)
	if perMessage.Completed == 0 || coalesced.Completed == 0 {
		t.Fatalf("scenario completed no requests: per-message %d, coalesced %d",
			perMessage.Completed, coalesced.Completed)
	}
	if coalesced.Throughput <= perMessage.Throughput {
		t.Fatalf("coalescing did not help: %.0f req/s coalesced vs %.0f req/s per-message",
			coalesced.Throughput, perMessage.Throughput)
	}
	t.Logf("per-message %.0f req/s, coalesced %.0f req/s (%.2fx)",
		perMessage.Throughput, coalesced.Throughput, coalesced.Throughput/perMessage.Throughput)
}

// TestEgressCoalescingByteIdentical extends the determinism gate to the
// coalescing egress model: link parking, batched flush events and per-packet
// overhead must all be functions of (config, seed) alone.
func TestEgressCoalescingByteIdentical(t *testing.T) {
	run := func(seed int64) []byte {
		return serialize(t, New(egressScenario(seed, 16)).Run(2*time.Second))
	}
	a, b := run(5), run(5)
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed produced different coalesced-egress traces:\n run1: %s\n run2: %s", a, b)
	}
	var res Result
	if err := json.Unmarshal(a, &res); err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("coalesced-egress scenario completed no requests")
	}
	if c := run(6); bytes.Equal(a, c) {
		t.Fatal("different seeds produced byte-identical coalesced-egress traces; the check is vacuous")
	}
}

// TestEgressCoalescingJSONLByteIdentical pins the raw event trace under the
// coalescing model, matching the JSONL gates of the other subsystems.
func TestEgressCoalescingJSONLByteIdentical(t *testing.T) {
	run := func() []byte {
		var buf bytes.Buffer
		w := obs.NewJSONLWriter(&buf)
		cfg := egressScenario(5, 16)
		cfg.Trace = w
		New(cfg).Run(2 * time.Second)
		if err := w.Err(); err != nil {
			t.Fatalf("trace writer: %v", err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different coalesced-egress JSONL traces")
	}
}

// TestEgressCoalescingWithCrashes checks the interaction the crash model
// must get right: payloads parked on a busy link die with the host (they are
// the node's egress queues), scheduled flushes are invalidated by the epoch
// bump, and the combination stays deterministic.
func TestEgressCoalescingWithCrashes(t *testing.T) {
	scenario := func() Config {
		cfg := egressScenario(9, 16)
		cfg.Durability = DurabilityGroupCommit
		cfg.Cost.FsyncLatency = 100 * time.Microsecond
		cfg.Crashes = []Crash{{
			Node: 2,
			At:   time.Unix(0, 0).Add(500 * time.Millisecond),
			Down: 300 * time.Millisecond,
		}}
		return cfg
	}
	run := func() []byte {
		return serialize(t, New(scenario()).Run(2*time.Second))
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different coalesced-egress crash traces")
	}
	var res Result
	if err := json.Unmarshal(a, &res); err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("crash scenario completed no requests")
	}
}

// TestBookLink pins the one place link timing is computed (Sim.book) on the
// paths that reach it: an idle link, a busy link, a link that freed in the
// past, a coalesced flush and the client-NIC flood. 1 byte/µs and a 40-byte
// packet overhead make every figure readable: a 100-byte payload occupies
// its link for 140 µs, and a TCP run adds 60 + 90 µs of transit.
func TestBookLink(t *testing.T) {
	const us = time.Microsecond
	s := New(Config{F: 1, EgressCoalesce: 8, Cost: CostModel{
		LinkLatency: 60 * us, TCPExtraLatency: 90 * us,
		LinkBandwidth: 1e6, PacketOverheadBytes: 40,
	}})
	t0 := s.now
	deliveries := func(at time.Time) int {
		n := 0
		for _, ev := range s.events {
			if ev.at.Equal(at) {
				n++
			}
		}
		return n
	}

	var l link
	if got, want := s.book(&l, 100, s.transit), t0.Add(290*us); !got.Equal(want) || !l.busyUntil.Equal(t0.Add(140*us)) {
		t.Errorf("idle link: arrives %v, busy until %v; want %v and t0+140µs", got.Sub(t0), l.busyUntil.Sub(t0), want.Sub(t0))
	}
	if got, want := s.book(&l, 100, s.transit), t0.Add(430*us); !got.Equal(want) || !l.busyUntil.Equal(t0.Add(280*us)) {
		t.Errorf("busy link: arrives %v, busy until %v; want %v and t0+280µs (queued behind the first frame)", got.Sub(t0), l.busyUntil.Sub(t0), want.Sub(t0))
	}
	s.now = t0.Add(1000 * us)
	if got, want := s.book(&l, 100, s.transit), t0.Add(1290*us); !got.Equal(want) {
		t.Errorf("link freed in the past: arrives %v, want %v (starts now, not when it freed)", got.Sub(t0), want.Sub(t0))
	}
	s.now = t0

	// Coalesced flush: the first payload finds node 0's link to node 1 idle
	// and leaves alone; the next three park behind it and leave as one frame
	// when the link frees, paying the 40-byte overhead once (340 µs, not 420).
	garbage := floodFrame(Flood{Size: 100})
	from, tx := s.nodes[0], &s.nodes[0].peerTx[1]
	for i := 0; i < 4; i++ {
		s.sendNodeToNode(from, 1, garbage, 100)
	}
	if len(tx.pending) != 3 || !tx.busyUntil.Equal(t0.Add(140*us)) || deliveries(t0.Add(290*us)) != 1 {
		t.Fatalf("after four sends: %d parked, busy until %v, %d deliveries at t0+290µs; want 3, t0+140µs, 1",
			len(tx.pending), tx.busyUntil.Sub(t0), deliveries(t0.Add(290*us)))
	}
	s.now = tx.busyUntil
	s.flushLink(from, 1, from.epoch)
	if !tx.busyUntil.Equal(t0.Add(480*us)) || deliveries(t0.Add(630*us)) != 3 {
		t.Errorf("coalesced flush: busy until %v with %d deliveries at t0+630µs; want t0+480µs and 3",
			tx.busyUntil.Sub(t0), deliveries(t0.Add(630*us)))
	}
	s.now = t0

	// Client-NIC flood: booked like any frame, but its transit is the bare
	// link latency even on this TCP run (attack.go says why).
	flood := Flood{FromClients: true, Size: 160, Rate: 1}
	s.floodOnce(flood, floodFrame(flood), 2, time.Time{})
	rx := &s.nodes[2].clientRx
	if !rx.busyUntil.Equal(t0.Add(200*us)) || deliveries(t0.Add(260*us)) != 1 || deliveries(t0.Add(350*us)) != 0 {
		t.Errorf("client-NIC flood: busy until %v, %d deliveries at t0+260µs and %d at t0+350µs; want t0+200µs, 1 and 0 (no TCP extra latency)",
			rx.busyUntil.Sub(t0), deliveries(t0.Add(260*us)), deliveries(t0.Add(350*us)))
	}
}
