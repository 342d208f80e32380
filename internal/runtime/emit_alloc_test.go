//go:build !race

package runtime

import (
	"testing"

	"rbft/internal/core"
	"rbft/internal/crypto"
	"rbft/internal/message"
	"rbft/internal/types"
)

// TestEmitAllocatesOnlyItsFrames pins what emit does per message: encode once
// into a pooled buffer, allocate the shared frame, hand it to queues that
// already know their wire names. One broadcast plus one reply is two
// allocations — no target slice, no name string per recipient. The queues
// here have no workers: the test drains them on its own goroutine, so every
// pooled buffer is back before the next emit and the count is exact — except
// under the race detector, where sync.Pool drops buffers at random (hence the
// build tag).
func TestEmitAllocatesOnlyItsFrames(t *testing.T) {
	cluster := types.NewConfig(1)
	nr := &NodeRuntime{cluster: cluster, tr: newRecordingTransport(""), peers: cluster.OtherNodes(0)}
	nr.eg = newEgress(nr.tr, nil, NodeName(0), nil, nil)
	var queues []*peerQueue
	for _, ep := range []endpoint{nodeEndpoint(1), nodeEndpoint(2), nodeEndpoint(3), clientEndpoint(7)} {
		q := &peerQueue{name: ep.name(), ch: make(chan *egressFrame, egressQueueDepth)}
		nr.eg.queues[ep] = q
		queues = append(queues, q)
	}
	out := core.Output{
		NodeMsgs: []core.NodeSend{{Msg: &message.Commit{
			Instance: 0, View: 1, Seq: 2, Node: 0, Auth: make(crypto.Authenticator, cluster.N*crypto.MACSize),
		}}},
		ClientMsgs: []core.ClientSend{{To: 7, Msg: &message.Reply{
			Client: 7, ID: 1, Result: []byte("ok"), Node: 0,
		}}},
	}
	emit := func() {
		nr.emit(out)
		for _, q := range queues {
			(<-q.ch).release()
		}
	}
	emit() // warms the encode pool
	if n := testing.AllocsPerRun(200, emit); n != 2 {
		t.Errorf("emit of one broadcast and one reply: %v allocs, want its 2 egress frames", n)
	}
}
