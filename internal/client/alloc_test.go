//go:build !race

package client

import (
	"testing"
	"time"

	"rbft/internal/message"
	"rbft/internal/transport"
	"rbft/internal/types"
)

// TestReplyTallyAllocatesNothing: a request costs its signed message and its
// pending record; counting the replies that complete it allocates nothing
// (13 allocations per round when the tally was two maps per request, an inner
// map per result and a string key per reply). The bundle row takes a flushed
// bundle of 8 through two REPLY frames of 8. Not under the race detector,
// where sync.Pool drops the pooled hashers at random.
func TestReplyTallyAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name    string
		k       int
		ceiling float64
	}{
		// The request, its signature, its authenticator, the pending record,
		// the pending map's growth and the one reply group's node set.
		{"single", 1, 6},
		// Per bundle the request, its Rest, its OpDigests, its signature, its
		// authenticator and Flush's result; per request its pending record and
		// its reply group's node set.
		{"bundle of 8", 8, 6 + 2*8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl, ks, _ := newTestClient(t)
			now, op := time.Unix(0, 0), []byte("op")
			const runs = 100
			results := make([][]byte, tc.k)
			for i := range results {
				results[i] = []byte("result")
			}
			reps := make([][2]*message.Reply, runs+2)
			for i := range reps {
				id := types.RequestID(i*tc.k + 1)
				reps[i] = [2]*message.Reply{replyBundle(ks, 0, 2, id, results...), replyBundle(ks, 1, 2, id, results...)}
			}
			done := make([]Completed, 0, tc.k)
			next := 0
			n := testing.AllocsPerRun(runs, func() {
				if tc.k == 1 {
					cl.NewRequest(op, now)
				} else {
					for i := 0; i < tc.k; i++ {
						cl.Queue(op, now)
					}
					cl.Flush(now, transport.MaxFrame)
				}
				done = cl.OnReplies(reps[next][0], 0, now, done[:0])
				if done = cl.OnReplies(reps[next][1], 1, now, done[:0]); len(done) != tc.k {
					t.Fatalf("%d of %d requests completed", len(done), tc.k)
				}
				next++
			})
			t.Logf("%v allocs", n)
			if n > tc.ceiling {
				t.Errorf("issuing and the two reply frames that complete it: %v allocs, want <= %v", n, tc.ceiling)
			}
		})
	}
}
