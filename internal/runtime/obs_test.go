package runtime

import (
	"strings"
	"testing"
	"time"

	"rbft/internal/core"
	"rbft/internal/message"
	"rbft/internal/obs"
	"rbft/internal/types"
)

// rejectedFrames sums rbft_frames_rejected_total over its kinds.
func rejectedFrames(reg *obs.Registry) float64 {
	total := 0.0
	for _, m := range reg.Snapshot() {
		if strings.HasPrefix(m.Name, "rbft_frames_rejected_total") {
			total += m.Value
		}
	}
	return total
}

// TestNICClosureOnEveryTransport drives the flood defence over each live
// transport: node 3 floods node 0 with invalid frames, node 0 closes its NIC
// toward node 3, and while it is closed the runtime drops node 3's frames
// before preverify — each drop traced as EvMsgDrop, none of them counted as a
// rejected frame. Once core.NICClosePeriod lapses, node 3's frames are
// preverified (and rejected) again.
func TestNICClosureOnEveryTransport(t *testing.T) {
	const period = core.NICClosePeriod
	for name, kind := range map[string]TransportKind{"mem": Mem, "tcp": TCP, "udp": UDP} {
		t.Run(name, func(t *testing.T) {
			reg := obs.NewRegistry()
			fr := obs.NewFlightRecorder(obs.DefaultRecorderSize)
			lc, err := StartLocalCluster(ClusterOptions{
				F:         1,
				Transport: kind,
				Metrics:   reg,
				Tracer:    fr,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(lc.Stop)

			// flood sends one flood threshold of invalid frames at once, well
			// within one core.FloodWindow.
			flood := func() {
				lc.Node(3).WithNode(func(n *core.Node) core.Output {
					var out core.Output
					for i := 0; i < core.FloodThreshold; i++ {
						out.NodeMsgs = append(out.NodeMsgs, core.NodeSend{
							Msg: &message.Invalid{Node: 3, Padding: make([]byte, 32)},
							To:  []types.NodeID{0},
						})
					}
					return out
				})
			}
			// events counts node 0's events of type typ about peer 3 and
			// returns the time of the last.
			events := func(typ obs.EventType) (n int, last time.Time) {
				for _, ev := range fr.Events() {
					if ev.Type == typ && ev.Node == 0 && ev.Peer == 3 {
						n, last = n+1, ev.At
					}
				}
				return n, last
			}
			// await floods until cond holds.
			await := func(what string, cond func() bool) {
				t.Helper()
				for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(20 * time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatalf("timed out waiting for %s", what)
					}
					flood()
				}
			}

			// The first drop follows the closure's store in emit, which follows
			// the rejection that tripped it; from then on no frame of node 3
			// is counted, whether the runtime or the core turns it away.
			await("node 0 to drop node 3's frames", func() bool { n, _ := events(obs.EvMsgDrop); return n > 0 })
			closures, closedAt := events(obs.EvNICClose)
			if closures != 1 {
				t.Fatalf("%d nic-close events for node 0 / peer 3 before the first drop, want 1", closures)
			}
			before := rejectedFrames(reg)
			drops, _ := events(obs.EvMsgDrop)
			await("more drops of node 3's frames", func() bool { n, _ := events(obs.EvMsgDrop); return n >= drops+16 })
			if after := rejectedFrames(reg); after != before {
				t.Fatalf("rbft_frames_rejected_total went %v -> %v while the NIC was closed: frames reached preverify", before, after)
			}
			if time.Since(closedAt) >= period {
				t.Fatalf("the checks outlasted the %v closure; the test proves nothing", period)
			}

			time.Sleep(time.Until(closedAt.Add(period)))
			reopened := rejectedFrames(reg)
			await("node 3's frames to be preverified again", func() bool { return rejectedFrames(reg) > reopened })
		})
	}
}
