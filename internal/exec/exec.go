// Package exec is the deterministic parallel execution engine: the pipeline
// stage between the ordering lanes' merge and the application
// (docs/EXECUTION.md).
//
// The ordering pipeline delivers batches of requests in one agreed total
// order, but nothing in that order forces serial apply: operations that
// touch disjoint state commute. The scheduler asks the application for each
// operation's read/write sets (app.ConflictKeyer), partitions the batch into
// waves of mutually non-conflicting operations with a seq-order greedy
// coloring, and applies each wave across a pool of worker shards.
//
// Determinism argument (the property every replica depends on):
//
//  1. Wave construction is a pure function of the batch: operations are
//     scanned in sequence order and wave indices come from per-key
//     last-writer/last-reader lookups — no map iteration, no randomness, no
//     dependence on worker count.
//  2. Within a wave no operation writes a key another reads or writes, so
//     the wave's operations commute: any interleaving of the workers yields
//     the state and replies of applying the wave in sequence order.
//  3. Waves run in ascending order with a barrier between them, so the
//     whole batch is equivalent to serial sequence-order apply.
//
// Corollary: a WAL replay that re-executes the journaled order serially
// (core.Node.Restore) reproduces the exact state the scheduler produced, so
// the scheduler journals nothing new. FuzzWaveSchedule pounds on property 2
// with random op sets and worker counts.
//
// The package is deliberately NOT in the simdeterminism analyzer's scope:
// it spawns goroutines, but their only effect is filling disjoint result
// slots before the coordinator's barrier, so no goroutine interleaving is
// observable from outside ExecuteBatch.
package exec

import (
	"sync"

	"rbft/internal/app"
	"rbft/internal/types"
)

// Op is one ordered operation handed to the scheduler.
type Op struct {
	Client types.ClientID
	ID     types.RequestID
	Body   []byte
}

// Result is the outcome of one ExecuteBatch call.
type Result struct {
	// Results holds each operation's reply, in input order.
	Results [][]byte
	// Wave assigns each operation (input order) to the wave that applied it.
	Wave []int
	// Waves holds the operation count of each wave, in apply order.
	Waves []int
	// Conflicts counts operations deferred past wave 0 by a read/write
	// conflict with an earlier operation in the batch.
	Conflicts int
	// Parallel counts operations that shared their wave with at least one
	// other operation — the work that actually ran concurrently.
	Parallel int
}

// Scheduler plans and runs the parallel apply of ordered batches. A nil
// scheduler, a worker count below 2, or an application without
// app.ConflictKeyer all mean Parallel() is false and the caller keeps its
// serial apply path.
type Scheduler struct {
	app     app.Application
	keyer   app.ConflictKeyer
	workers int
}

// New builds a scheduler for a. The parallel path engages only when workers
// >= 2 AND a implements app.ConflictKeyer; otherwise the scheduler reports
// Parallel() == false and callers fall back to serial apply.
func New(a app.Application, workers int) *Scheduler {
	s := &Scheduler{app: a, workers: workers}
	if k, ok := a.(app.ConflictKeyer); ok {
		s.keyer = k
	}
	return s
}

// Parallel reports whether ExecuteBatch applies waves across workers.
func (s *Scheduler) Parallel() bool {
	return s != nil && s.workers >= 2 && s.keyer != nil
}

// PlanWaves partitions ops into waves of non-conflicting operations with a
// sequence-order greedy coloring: each operation lands in the first wave
// after every earlier conflicting operation's wave. Conflicts are
// write/write, write/read and read/write on a shared key; reads share waves
// freely. The plan is a pure function of keyer and ops (maps are only ever
// looked up by the current op's keys, never iterated), so every replica
// computes the same waves.
func PlanWaves(keyer app.ConflictKeyer, ops []Op) (wave []int, waves []int, conflicts int) {
	wave = make([]int, len(ops))
	// lastWriter[k] is the wave of k's latest writer; lastReader[k] the
	// highest wave of any reader. Presence in the map matters (wave 0 is a
	// valid value), hence explicit ok-checks rather than zero defaults.
	lastWriter := make(map[string]int)
	lastReader := make(map[string]int)
	maxWave := -1
	for i, op := range ops {
		reads, writes := keyer.Keys(op.Body)
		w := 0
		for _, k := range reads {
			if lw, ok := lastWriter[k]; ok && lw+1 > w {
				w = lw + 1 // read waits for the latest write
			}
		}
		for _, k := range writes {
			if lw, ok := lastWriter[k]; ok && lw+1 > w {
				w = lw + 1 // write waits for the latest write
			}
			if lr, ok := lastReader[k]; ok && lr+1 > w {
				w = lr + 1 // write waits for every earlier read
			}
		}
		wave[i] = w
		if w > 0 {
			conflicts++
		}
		if w > maxWave {
			maxWave = w
		}
		for _, k := range reads {
			if lr, ok := lastReader[k]; !ok || w > lr {
				lastReader[k] = w
			}
		}
		for _, k := range writes {
			lastWriter[k] = w
		}
	}
	waves = make([]int, maxWave+1)
	for _, w := range wave {
		waves[w]++
	}
	return wave, waves, conflicts
}

// ExecuteBatch applies ops — one merged, deduplicated batch in the agreed
// order — and returns every reply plus the wave plan. With Parallel() false
// it is a plain serial loop (one wave per op is still reported so callers
// can account uniformly). The caller must not touch application state
// concurrently; all cross-wave synchronisation happens inside.
func (s *Scheduler) ExecuteBatch(ops []Op) Result {
	res := Result{Results: make([][]byte, len(ops))}
	if !s.Parallel() {
		res.Wave = make([]int, len(ops))
		res.Waves = make([]int, len(ops))
		for i, op := range ops {
			res.Results[i] = s.app.Execute(op.Client, op.ID, op.Body)
			res.Wave[i] = i
			res.Waves[i] = 1
		}
		return res
	}
	res.Wave, res.Waves, res.Conflicts = PlanWaves(s.keyer, ops)

	// Bucket op indices by wave, preserving sequence order within each wave
	// (the buckets are filled by one in-order scan).
	buckets := make([][]int, len(res.Waves))
	for i, w := range res.Wave {
		buckets[w] = append(buckets[w], i)
	}
	for _, idx := range buckets {
		if len(idx) > 1 {
			res.Parallel += len(idx)
		}
		s.runWave(ops, idx, res.Results)
	}
	return res
}

// runWave applies one wave of non-conflicting operations across the worker
// shards. Shard w takes indices w, w+n, w+2n... — a deterministic partition,
// though correctness does not depend on it (the wave's ops commute).
func (s *Scheduler) runWave(ops []Op, idx []int, results [][]byte) {
	n := s.workers
	if len(idx) < n {
		n = len(idx)
	}
	if n <= 1 {
		s.applyShard(ops, idx, 0, 1, results)
		return
	}
	var wg sync.WaitGroup
	for shard := 1; shard < n; shard++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			s.applyShard(ops, idx, shard, n, results)
		}(shard)
	}
	s.applyShard(ops, idx, 0, n, results)
	wg.Wait()
}

// applyShard is the worker-shard body: it applies its stride of the wave and
// writes each reply to the op's own result slot. It runs concurrently with
// its sibling shards, so it must stay lock-free and non-blocking — no node
// state, no channels; the coordinator owns all synchronisation.
//
//rbft:exec
func (s *Scheduler) applyShard(ops []Op, idx []int, shard, stride int, results [][]byte) {
	for p := shard; p < len(idx); p += stride {
		i := idx[p]
		results[i] = s.app.Execute(ops[i].Client, ops[i].ID, ops[i].Body)
	}
}
