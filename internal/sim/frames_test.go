package sim

import (
	"bytes"
	"testing"
	"time"

	"rbft/internal/client"
	"rbft/internal/core"
	"rbft/internal/crypto"
	"rbft/internal/message"
	"rbft/internal/obs"
	"rbft/internal/types"
)

// rejected reads one node's rbft_frames_rejected_total{kind} counter.
func rejected(reg *obs.Registry, kind message.FailKind) uint64 {
	return reg.Counter(obs.LabeledName("rbft_frames_rejected_total", "kind", kind.String())).Value()
}

// TestWrongSenderOnClientNIC has client A send, from its own endpoint, a
// validly signed request of client B. Every node must reject the frame as
// wrong-sender — the claimed id is the sending endpoint's, not the one in the
// body — without holding it against B, whose own requests keep completing.
func TestWrongSenderOnClientNIC(t *testing.T) {
	const a, b = 0, 1
	injectAt := time.Unix(0, 0).Add(300 * time.Millisecond)
	cfg := baseConfig(1, 8, 2, 200)
	cfg.TrackClientLatency = true
	cfg.Script = []Action{{At: injectAt, Do: func(s *Sim) {
		asB := client.New(client.Config{Cluster: s.cluster, ID: b}, s.ks.ClientRing(b))
		s.broadcastRequest(s.clientAt(a), asB.NewRequest([]byte("not mine"), s.now))
	}}}
	s := New(cfg)
	regs := make([]*obs.Registry, len(s.nodes))
	for i, sn := range s.nodes {
		regs[i] = obs.NewRegistry()
		sn.node.SetRegistry(regs[i])
	}
	res := s.Run(time.Second)

	for i, reg := range regs {
		for k := message.FailMalformed; k <= message.FailBadSig; k++ {
			want := uint64(0)
			if k == message.FailWrongSender {
				want = 1
			}
			if got := rejected(reg, k); got != want {
				t.Errorf("node %d rejected %d frames as %s, want %d", i, got, k, want)
			}
		}
	}
	after := map[types.ClientID]int{}
	for _, p := range res.ClientSeries {
		if p.At.After(injectAt) {
			after[p.Client]++
		}
	}
	// 200 req/s for the remaining 0.7 s, less what is in flight at the end.
	if after[b] < 120 || after[a] < 120 {
		t.Errorf("completions after the injection: A %d, B %d; want about 140 each (B blacklisted?)", after[a], after[b])
	}
}

// damagedCopies is how many copies of each damaged frame the scenario sends.
const damagedCopies = core.FloodThreshold / 2

// damagedFrameScenario injects, mid-run and on the node 1 → node 2 link, the
// three things a network can do to a frame short of losing it. It waits for a
// PREPARE parked on that link (4 kB PROPAGATEs keep it busy, and with
// coalescing what is sent meanwhile parks behind them), then queues behind it
// a byte-exact duplicate, then damagedCopies copies missing their last five
// bytes and as many with one byte flipped in the receiver's own MAC. The
// damaged copies add up to core.FloodThreshold, so they show as one NIC
// closure.
func damagedFrameScenario() Config {
	const from, to = 1, 2
	cfg := baseConfig(1, 4096, 4, 250)
	cfg.EgressCoalesce = 8
	var hunt func(s *Sim)
	hunt = func(s *Sim) {
		for _, pf := range s.nodes[from].peerTx[to].pending {
			if message.Type(pf.frame[0]) != message.TypePrepare {
				continue
			}
			truncated := pf.frame[:len(pf.frame)-5]
			flipped := bytes.Clone(pf.frame)
			flipped[len(flipped)-(s.cluster.N-to)*crypto.MACSize] ^= 0x01
			s.sendNodeToNode(s.nodes[from], to, pf.frame, len(pf.frame))
			for range damagedCopies {
				for _, frame := range [][]byte{truncated, flipped} {
					s.sendNodeToNode(s.nodes[from], to, frame, len(frame))
				}
			}
			return
		}
		s.schedule(s.now.Add(10*time.Microsecond), func() { hunt(s) })
	}
	cfg.Script = []Action{{At: time.Unix(0, 0).Add(400 * time.Millisecond), Do: hunt}}
	return cfg
}

// TestDamagedFramesOnNodeLink runs the aliasing Decode and the preverifier
// over damaged bytes inside the simulator, under the determinism gate: the
// truncated and the flipped frame are rejected (malformed, bad MAC), count
// towards their sender's flood threshold and reach no replica; the duplicate
// passes verification and is absorbed by the protocol; the workload completes
// without an instance change; and two same-seed runs are byte-identical.
func TestDamagedFramesOnNodeLink(t *testing.T) {
	run := func() (*Result, *obs.Registry, []byte) {
		var buf bytes.Buffer
		w := obs.NewJSONLWriter(&buf)
		cfg := damagedFrameScenario()
		cfg.Trace = w
		s := New(cfg)
		reg := obs.NewRegistry()
		s.Node(2).SetRegistry(reg)
		res := s.Run(time.Second)
		if err := w.Err(); err != nil {
			t.Fatalf("trace writer: %v", err)
		}
		return res, reg, buf.Bytes()
	}
	res, reg, trace := run()
	for k := message.FailMalformed; k <= message.FailBadSig; k++ {
		want := uint64(0)
		if k == message.FailMalformed || k == message.FailBadMAC {
			want = damagedCopies
		}
		if got := rejected(reg, k); got != want {
			t.Errorf("node 2 rejected %d frames as %s, want %d", got, k, want)
		}
	}
	if res.NICCloses != 1 {
		t.Errorf("%d NIC closures, want 1: the damaged frames are node 1's flood threshold", res.NICCloses)
	}
	if res.ViewChanged() {
		t.Errorf("the damaged frames caused an instance change: %+v", res.InstanceChanges)
	}
	// 1000 req/s offered over the 0.8 s window.
	if res.Completed < 760 {
		t.Errorf("completed %d requests, want about 800", res.Completed)
	}
	res2, _, trace2 := run()
	if !bytes.Equal(serialize(t, res), serialize(t, res2)) {
		t.Error("same seed produced different results")
	}
	if !bytes.Equal(trace, trace2) {
		t.Error("same seed produced different JSONL traces")
	}
}
