package runtime

import (
	"sync"
	"testing"
	"time"

	"rbft/internal/client"
	"rbft/internal/message"
	"rbft/internal/transport"
	"rbft/internal/types"
)

// sentFrames records every frame a client sends.
type sentFrames struct {
	transport.Transport
	mu     sync.Mutex
	frames [][]byte
}

func (s *sentFrames) Send(to string, data []byte) error {
	s.mu.Lock()
	s.frames = append(s.frames, data)
	s.mu.Unlock()
	return s.Transport.Send(to, data)
}

// TestSubmitBundlesQueuedRequests: 100 back-to-back Submits, from two
// goroutines, leave the client loop to sign what is queued whenever it wakes
// — bundles within the caps, covering every id once — and every id completes
// exactly once, whether its replies came bundled or not; Invoke still works
// beside Submit.
func TestSubmitBundlesQueuedRequests(t *testing.T) {
	lc, apps := startCluster(t, Mem, nil)
	tr, err := lc.listen(ClientName(1))
	if err != nil {
		t.Fatal(err)
	}
	log := &sentFrames{Transport: tr}
	cl := client.New(client.Config{Cluster: lc.Cluster, ID: 1}, lc.ks.ClientRing(1))
	cr := StartClient(cl, log, lc.Cluster)
	t.Cleanup(cr.Stop)

	// Two goroutines submit at once: the queue is shared with the loop.
	const n = 100
	var submitters sync.WaitGroup
	for g := 0; g < 2; g++ {
		submitters.Add(1)
		go func() {
			defer submitters.Done()
			for i := 0; i < n/2; i++ {
				cr.Submit([]byte{0, 0, 0, 0, 0, 0, 0, 1})
			}
		}()
	}
	submitters.Wait()
	seen := make(map[types.RequestID]bool)
	deadline := time.After(30 * time.Second)
	for len(seen) < n {
		select {
		case done := <-cr.Completions():
			if done.ID < 1 || done.ID > n || seen[done.ID] {
				t.Fatalf("completion for request %d", done.ID)
			}
			seen[done.ID] = true
		case <-deadline:
			t.Fatalf("completed %d of %d submitted requests", len(seen), n)
		}
	}
	for i := 0; i < 3; i++ {
		done, err := cr.Invoke([]byte{0, 0, 0, 0, 0, 0, 0, 1}, 10*time.Second)
		if err != nil || done.ID != types.RequestID(n+1+i) {
			t.Fatalf("Invoke after the burst: request %d, %v", done.ID, err)
		}
	}
	// The replies of the other nodes, bundled or not, complete nothing twice.
	time.Sleep(50 * time.Millisecond)
	select {
	case done := <-cr.Completions():
		t.Fatalf("request %d completed again", done.ID)
	default:
	}

	// Each frame went to every node; no retransmission is configured.
	log.mu.Lock()
	defer log.mu.Unlock()
	covered, largest := make(map[types.RequestID]int), 0
	for i := 0; i < len(log.frames); i += lc.Cluster.N {
		msg, err := message.Decode(log.frames[i])
		if err != nil {
			t.Fatal(err)
		}
		req := msg.(*message.Request)
		if req.Len() > message.MaxBundleOps {
			t.Fatalf("a bundle of %d requests", req.Len())
		}
		largest = max(largest, req.Len())
		for j := 0; j < req.Len(); j++ {
			covered[req.ID+types.RequestID(j)]++
		}
	}
	for id := types.RequestID(1); id <= n+3; id++ {
		if covered[id] != 1 {
			t.Fatalf("request %d was sent in %d frames, want 1", id, covered[id])
		}
	}
	if largest < 2 {
		t.Fatal("100 back-to-back Submits were never bundled")
	}
	t.Logf("%d requests in %d frames", n+3, len(log.frames)/lc.Cluster.N)
	until := time.Now().Add(5 * time.Second)
	for apps[0].Total(1) != n+3 {
		if time.Now().After(until) {
			t.Fatalf("node 0 counter = %d, want %d", apps[0].Total(1), n+3)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestUDPBundlesFitADatagram: a burst of 4 kB operations over UDP completes.
// The client bundles them only as far as the PROPAGATE a node builds fits a
// datagram (transport.PayloadBudget); a bundle past it would be undeliverable
// and retransmitted for ever.
func TestUDPBundlesFitADatagram(t *testing.T) {
	lc, err := StartLocalCluster(ClusterOptions{F: 1, Transport: UDP})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Stop)
	cr, err := lc.NewClient(1)
	if err != nil {
		t.Fatal(err)
	}
	const burst = 48
	for i := 0; i < burst; i++ {
		cr.Submit(make([]byte, 4096))
	}
	deadline := time.After(20 * time.Second)
	for i := 0; i < burst; i++ {
		select {
		case <-cr.Completions():
		case <-deadline:
			t.Fatalf("%d of %d submitted 4 kB requests completed", i, burst)
		}
	}
}
