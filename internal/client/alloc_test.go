//go:build !race

package client

import (
	"testing"
	"time"

	"rbft/internal/message"
	"rbft/internal/types"
)

// TestReplyTallyAllocatesNothing: a request costs its signed message and its
// pending record; counting the replies that complete it allocates nothing
// (13 allocations per round when the tally was two maps per request, an inner
// map per result and a string key per reply). Not under the race detector,
// where sync.Pool drops the pooled hashers at random.
func TestReplyTallyAllocatesNothing(t *testing.T) {
	cl, ks, _ := newTestClient(t)
	now := time.Unix(0, 0)
	const runs = 100
	reps := make([][2]*message.Reply, runs+2)
	for i := range reps {
		id := types.RequestID(i + 1)
		reps[i] = [2]*message.Reply{reply(ks, 0, 2, id, "result"), reply(ks, 1, 2, id, "result")}
	}
	next := 0
	n := testing.AllocsPerRun(runs, func() {
		cl.NewRequest([]byte("op"), now)
		cl.OnReply(reps[next][0], 0, now)
		if _, ok := cl.OnReply(reps[next][1], 1, now); !ok {
			t.Fatal("request did not complete")
		}
		next++
	})
	// The request, its signature, its authenticator, the pending record, the
	// pending map's growth and the one reply group's node set.
	if n > 6 {
		t.Errorf("NewRequest and the two replies that complete it: %v allocs, want <= 6", n)
	}
}
