//go:build !race

package runtime

import (
	"testing"

	"rbft/internal/core"
	"rbft/internal/crypto"
	"rbft/internal/message"
	"rbft/internal/transport"
	"rbft/internal/transport/memnet"
	"rbft/internal/types"
)

// TestEmitAllocatesOnlyItsFrames pins what emit does per message: encode once
// into a pooled buffer, allocate the shared frame, hand it to queues that
// already know their wire names. One broadcast plus one reply is two
// allocations — no target slice, no name string per recipient. Over a
// transport that keeps what it is sent (memnet) the encoded bytes leave the
// pool, so Encode makes two arrays anew; the empty Bufs still come back, or it
// would be six. The queues here have no workers: the test drains them on its
// own goroutine, so every pooled buffer is back before the next emit and the
// count is exact — except under the race detector, where sync.Pool drops
// buffers at random (hence the build tag).
func TestEmitAllocatesOnlyItsFrames(t *testing.T) {
	cluster := types.NewConfig(1)
	out := core.Output{
		NodeMsgs: []core.NodeSend{{Msg: &message.Commit{
			Instance: 0, View: 1, Seq: 2, Node: 0, Auth: make(crypto.Authenticator, cluster.N*crypto.MACSize),
		}}},
		ClientMsgs: []core.ClientSend{{To: 7, Msg: &message.Reply{
			Client: 7, ID: 1, Result: []byte("ok"), Node: 0,
		}}},
	}
	for _, c := range []struct {
		name string
		tr   transport.Transport
		want float64
	}{
		{"copying transport", newRecordingTransport(""), 2},
		{"keeping transport", memnet.NewNetwork().Endpoint(NodeName(0)), 4},
	} {
		nr := &NodeRuntime{cluster: cluster, tr: c.tr, peers: cluster.OtherNodes(0)}
		nr.eg = newEgress(nr.tr, nil, NodeName(0), nil, nil)
		var queues []*peerQueue
		for _, ep := range []endpoint{nodeEndpoint(1), nodeEndpoint(2), nodeEndpoint(3), clientEndpoint(7)} {
			q := &peerQueue{name: ep.name(), ch: make(chan *egressFrame, egressQueueDepth)}
			nr.eg.queues[ep] = q
			queues = append(queues, q)
		}
		emit := func() {
			nr.emit(out)
			for _, q := range queues {
				nr.eg.release(<-q.ch)
			}
		}
		emit() // warms the encode pool
		if n := testing.AllocsPerRun(200, emit); n != c.want {
			t.Errorf("%s: emit of one broadcast and one reply: %v allocs, want %v", c.name, n, c.want)
		}
	}
}
