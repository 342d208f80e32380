package exec

import (
	"fmt"
	"testing"

	"rbft/internal/app"
	"rbft/internal/types"
)

// TestSuccessiveBatchesDoNotShareAPlan: the scheduler's plan tables carry
// over from batch to batch, their contents do not. A GET of a key the
// previous batch wrote is still wave 0, and each Result is the plan of its
// own batch.
func TestSuccessiveBatchesDoNotShareAPlan(t *testing.T) {
	s := New(app.NewKV(), 2)
	first := s.ExecuteBatch(kvOps(t, "P a 1", "P a 2", "G a", "P b 1"))
	if got := fmt.Sprint(first.Wave, first.Waves, first.Conflicts); got != "[0 1 2 0] [2 1 1] 2" {
		t.Fatalf("first batch planned %s", got)
	}
	second := s.ExecuteBatch(kvOps(t, "G a", "G b", "P c 1"))
	if got := fmt.Sprint(second.Wave, second.Waves, second.Conflicts, second.Parallel); got != "[0 0 0] [3] 0 3" {
		t.Fatalf("second batch planned %s: it saw the first batch's writers", got)
	}
	if got := fmt.Sprintf("%s", second.Results); got != "[2 1 OK]" {
		t.Fatalf("second batch replied %s", got)
	}
}

// staticApp declares precomputed keys and returns one shared result, so the
// allocations counted around it are the scheduler's own. Body[0] picks the
// key and Body[1] is 'r' for a read, anything else for a write.
type staticApp struct{ keys [][]string }

var staticResult = []byte("done")

func (staticApp) Execute(types.ClientID, types.RequestID, []byte) []byte { return staticResult }

func (a staticApp) Keys(op []byte) (reads, writes []string) {
	if op[1] == 'r' {
		return a.keys[op[0]], nil
	}
	return nil, a.keys[op[0]]
}

// liveBatch is a 38-op batch, the mean batch size of a live kv-tcp-wal
// run: reads and writes over 12 keys, the first few of them hot.
func liveBatch() []Op {
	ops := make([]Op, 38)
	for i := range ops {
		key, verb := byte(i*7%12), byte('r')
		if i%3 == 0 {
			key, verb = byte(i%4), 'w'
		}
		ops[i] = Op{Client: types.ClientID(i % 5), ID: types.RequestID(i), Body: []byte{key, verb}}
	}
	return ops
}

// TestExecuteBatchAllocationBudget is the exec row of scripts/ci.sh's
// allocation gate: in steady state a batch costs the scheduler one
// allocation per worker goroutine it starts — nothing for its plan tables,
// buckets or Result — and a serial batch nothing at all.
func TestExecuteBatchAllocationBudget(t *testing.T) {
	a := staticApp{}
	for k := 0; k < 12; k++ {
		a.keys = append(a.keys, []string{fmt.Sprintf("key-%d", k)})
	}
	ops := liveBatch()
	for _, workers := range []int{0, 2, 4} {
		s := New(a, workers)
		res := s.ExecuteBatch(ops)
		spawned := 0
		if s.Parallel() {
			for _, n := range res.Waves {
				spawned += min(n, workers) - 1
			}
		}
		n := testing.AllocsPerRun(100, func() { s.ExecuteBatch(ops) })
		t.Logf("workers=%d: %d waves, %v allocs per batch", workers, len(res.Waves), n)
		if n > float64(spawned) {
			t.Errorf("workers=%d: %v allocs per %d-op batch, want <= %d (one per worker goroutine)", workers, n, len(ops), spawned)
		}
	}
}

// BenchmarkPlanWaves plans a 38-op KV batch (the live mean batch size) on
// the scheduler's reused tables; allocs/op is what app.KV.Keys costs, two
// per op.
func BenchmarkPlanWaves(b *testing.B) {
	kv := app.NewKV()
	ops := liveBatch()
	for i, op := range ops {
		if op.Body[1] == 'r' {
			ops[i].Body = fmt.Appendf(nil, "GET key-%d", op.Body[0])
		} else {
			ops[i].Body = fmt.Appendf(nil, "PUT key-%d value-%d", op.Body[0], i)
		}
	}
	var p planner
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.plan(kv, ops)
	}
}
