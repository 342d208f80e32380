package runtime

import (
	"fmt"
	"testing"
	"time"

	"rbft/internal/app"
	"rbft/internal/core"
	"rbft/internal/pbft"
	"rbft/internal/types"
)

func startCluster(t *testing.T, kind TransportKind, tune func(*core.Config)) (*LocalCluster, []*app.Counter) {
	t.Helper()
	var apps []*app.Counter
	lc, err := StartLocalCluster(ClusterOptions{
		F:         1,
		Transport: kind,
		NewApp: func(n types.NodeID) app.Application {
			c := app.NewCounter()
			apps = append(apps, c)
			return c
		},
		Tune: tune,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Stop)
	return lc, apps
}

func testEndToEnd(t *testing.T, kind TransportKind) {
	lc, apps := startCluster(t, kind, nil)
	cr, err := lc.NewClient(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		done, err := cr.Invoke(nil, 10*time.Second)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if done.Latency <= 0 {
			t.Fatalf("request %d: non-positive latency", i)
		}
	}
	// All nodes converge to the same execution history.
	deadline := time.Now().Add(5 * time.Second)
	for {
		same := true
		for i := 1; i < len(apps); i++ {
			if apps[i].Fingerprint() != apps[0].Fingerprint() {
				same = false
			}
		}
		if same && apps[0].Total(1) == 10 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("nodes did not converge: totals %d, fingerprints diverge=%v",
				apps[0].Total(1), !same)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestEndToEndMem(t *testing.T) { testEndToEnd(t, Mem) }
func TestEndToEndTCP(t *testing.T) { testEndToEnd(t, TCP) }
func TestEndToEndUDP(t *testing.T) { testEndToEnd(t, UDP) }

func TestOpenLoopBurstTCP(t *testing.T) {
	lc, _ := startCluster(t, TCP, nil)
	cr, err := lc.NewClient(2)
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	for i := 0; i < n; i++ {
		cr.Submit([]byte(fmt.Sprintf("op-%d", i)))
	}
	got := 0
	deadline := time.After(30 * time.Second)
	for got < n {
		select {
		case <-cr.Completions():
			got++
		case <-deadline:
			t.Fatalf("completed %d of %d burst requests", got, n)
		}
	}
}

func TestTwoClientsConcurrentlyTCP(t *testing.T) {
	lc, apps := startCluster(t, TCP, nil)
	var crs []*ClientRuntime
	for id := types.ClientID(1); id <= 2; id++ {
		cr, err := lc.NewClient(id)
		if err != nil {
			t.Fatal(err)
		}
		crs = append(crs, cr)
	}
	const n = 20
	errs := make(chan error, 2)
	for _, cr := range crs {
		go func(cr *ClientRuntime) {
			for i := 0; i < n; i++ {
				if _, err := cr.Invoke(nil, 10*time.Second); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(cr)
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for apps[0].Total(1) != n || apps[0].Total(2) != n {
		if time.Now().After(deadline) {
			t.Fatalf("totals %d/%d, want %d/%d", apps[0].Total(1), apps[0].Total(2), n, n)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestInstanceChangeOverLiveTransport(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second live-cluster test")
	}
	lc, _ := startCluster(t, Mem, func(c *core.Config) {
		c.Monitoring.Period = 150 * time.Millisecond
		c.Monitoring.Delta = 0.5
		c.Monitoring.MinRequests = 10
	})
	// Silence the master instance's primary replica: node 0 in view 0.
	lc.Node(0).WithNode(func(n *core.Node) core.Output {
		n.SetBehavior(core.Behavior{Instance: map[types.InstanceID]pbft.Behavior{
			types.MasterInstance: {Silent: true},
		}})
		return core.Output{}
	})
	cr, err := lc.NewClient(1)
	if err != nil {
		t.Fatal(err)
	}
	// Open-loop load; completions only resume after the instance change.
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				cr.Submit(nil)
				time.Sleep(2 * time.Millisecond)
			}
		}
	}()
	defer close(stop)

	deadline := time.After(30 * time.Second)
	for {
		select {
		case <-cr.Completions():
			// A completion implies the master instance made progress, which
			// requires the instance change to have replaced the silent
			// primary.
			var view types.View
			lc.Node(1).WithNode(func(n *core.Node) core.Output {
				view = n.View()
				return core.Output{}
			})
			if view == 0 {
				t.Fatal("completion without an instance change — master primary was silent")
			}
			return
		case <-deadline:
			t.Fatal("no completion: instance change never recovered liveness")
		}
	}
}

func TestMultiPrimaryEndToEndLive(t *testing.T) {
	// Multi-primary ordering over a live transport: clients land on both
	// partitions, every node executes the same merged order, and the idle
	// stretches of each lane are bridged by filler batches.
	var apps []*app.Counter
	lc, err := StartLocalCluster(ClusterOptions{
		F:            1,
		Transport:    Mem,
		OrderingMode: types.OrderingMultiPrimary,
		NewApp: func(n types.NodeID) app.Application {
			c := app.NewCounter()
			apps = append(apps, c)
			return c
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Stop)

	// Client 1 → lane 1, client 2 → lane 0 (PartitionOf is id % instances).
	const n = 10
	for id := types.ClientID(1); id <= 2; id++ {
		cr, err := lc.NewClient(id)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if _, err := cr.Invoke(nil, 10*time.Second); err != nil {
				t.Fatalf("client %d request %d: %v", id, i, err)
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		same := true
		for i := 1; i < len(apps); i++ {
			if apps[i].Fingerprint() != apps[0].Fingerprint() {
				same = false
			}
		}
		if same && apps[0].Total(1) == n && apps[0].Total(2) == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("nodes did not converge: totals %d/%d, fingerprints diverge=%v",
				apps[0].Total(1), apps[0].Total(2), !same)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
