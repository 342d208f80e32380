package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// BenchmarkSimRun measures the simulator itself, in host time: one fault-free
// f=1 run of 200 ms of virtual time per iteration, at a load the cluster
// sustains, for the two request sizes of the paper's figures under both
// ingress charging models. events/s is simulator events handled per host
// second (every scheduled delivery, task completion and timer is one) and
// allocs/event the heap allocations behind each — the two numbers that move
// when the representation of a frame in flight does.
func BenchmarkSimRun(b *testing.B) {
	for _, w := range []struct {
		size int
		rate float64 // per client, 8 clients
	}{{8, 1000}, {4096, 250}} {
		for _, cores := range []int{0, 2} {
			charging := "serial"
			if cores > 0 {
				charging = "pipelined"
			}
			b.Run(fmt.Sprintf("size=%d/%s", w.size, charging), func(b *testing.B) {
				cfg := baseConfig(1, w.size, 8, w.rate)
				cfg.VerifyCores = cores
				cfg.Warmup = 0
				var events uint64
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s := New(cfg)
					if res := s.Run(200 * time.Millisecond); res.Completed == 0 {
						b.Fatal("no requests completed")
					}
					events += s.seq
				}
				b.StopTimer()
				runtime.ReadMemStats(&after)
				b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
				b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(events), "allocs/event")
			})
		}
	}
}
