package runtime

import (
	"sync"
	"testing"
	"time"

	"rbft/internal/core"
	"rbft/internal/types"
)

// TestWithNodeRunsOnTheApplyLoop calls WithNode from 8 goroutines while a
// client drives traffic through the cluster. Each closure reads node state
// and bumps a plain counter of its node; both would be data races under
// -race if a closure ran anywhere but on that node's apply loop, or beside
// another closure. Every call must have run exactly once when it returns.
func TestWithNodeRunsOnTheApplyLoop(t *testing.T) {
	lc, _ := startCluster(t, Mem, nil)
	cr, err := lc.NewClient(1)
	if err != nil {
		t.Fatal(err)
	}
	const requests = 20
	served := make(chan error, 1)
	go func() {
		for i := 0; i < requests; i++ {
			if _, err := cr.Invoke(nil, 10*time.Second); err != nil {
				served <- err
				return
			}
		}
		served <- nil
	}()

	const callers, calls = 8, 50
	ran := make([]int, lc.Cluster.N) // ran[i] is touched only on node i's apply loop
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				id := types.NodeID((g + i) % lc.Cluster.N)
				lc.Node(id).WithNode(func(n *core.Node) core.Output {
					_ = n.NextWake()
					ran[id]++
					return core.Output{}
				})
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, c := range ran {
		total += c
	}
	if total != callers*calls {
		t.Fatalf("%d closures ran for %d WithNode calls", total, callers*calls)
	}
	if err := <-served; err != nil {
		t.Fatalf("traffic beside the WithNode calls: %v", err)
	}
}

// TestWithNodeAfterStop: once a node is stopped there is no apply loop to run
// the closure, so WithNode runs it on the caller, with the node the loop left
// behind, and returns instead of waiting for a loop that is gone.
func TestWithNodeAfterStop(t *testing.T) {
	lc, _ := startCluster(t, Mem, nil)
	nr := lc.Node(0)
	nr.Stop()
	returned := make(chan types.NodeID)
	go func() {
		for i := 0; i < 2; i++ { // the second call finds the node handed back by the first
			var id types.NodeID = -1
			nr.WithNode(func(n *core.Node) core.Output {
				id = n.ID()
				return core.Output{}
			})
			returned <- id
		}
	}()
	for i := 0; i < 2; i++ {
		select {
		case id := <-returned:
			if id != 0 {
				t.Fatalf("call %d: the closure saw node %d, want the stopped node 0", i, id)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("call %d: WithNode hung after Stop", i)
		}
	}
}
