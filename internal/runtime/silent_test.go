//go:build unix

package runtime

import (
	"syscall"
	"testing"
	"time"

	"rbft/internal/core"
)

// processCPU is the user+system CPU time this process has used.
func processCPU(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestSilentNodeDoesNotSpin: a silenced node serves no timers, so it must
// report no wake-up. When it kept reporting its (never advancing) monitoring
// deadline, the apply loop re-armed its timer with 0 for ever and burned a
// core. The cluster is idle here, so the whole process should be.
func TestSilentNodeDoesNotSpin(t *testing.T) {
	lc, _ := startCluster(t, Mem, nil)
	cr, err := lc.NewClient(1)
	if err != nil {
		t.Fatal(err)
	}
	// One request arms every node's timers.
	if _, err := cr.Invoke(nil, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	lc.Node(3).WithNode(func(n *core.Node) core.Output {
		n.SetBehavior(core.Behavior{Silent: true})
		return core.Output{}
	})
	// Two monitoring periods: the silenced node's deadline is in the past
	// for at least one of them.
	const window = 600 * time.Millisecond
	before := processCPU(t)
	time.Sleep(window)
	if used := processCPU(t) - before; used > window/4 {
		t.Fatalf("idle cluster with a silenced node used %v of CPU in %v", used, window)
	}
}
