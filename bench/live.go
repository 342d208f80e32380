package main

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	goruntime "runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"rbft/internal/app"
	"rbft/internal/client"
	"rbft/internal/core"
	"rbft/internal/obs"
	"rbft/internal/pbft"
	"rbft/internal/runtime"
	"rbft/internal/types"
	"rbft/internal/wal"
)

const (
	// nClients is the number of client endpoints, and of load-generating
	// goroutines: one per core of the reference host, so the generator can
	// never occupy more of the machine than the cluster it measures.
	nClients = 2
	// satWindow is each client's in-flight window in the sat phase. 16 per
	// client leaves a core idle; 256 per client overflows the runtime's
	// 256-frame drop-oldest egress queues and collapses into retransmits.
	// It also caps the open loop: after a stall (a stolen vCPU, the
	// silent-primary outage) an unbounded generator issues everything overdue
	// at once, the replies overflow the same queues, and by the time the
	// client retransmits the nodes' 256-entry reply caches have evicted them,
	// so the requests can never complete. Below the window the rate phase is
	// a true open loop (it normally has ~5 requests in flight); at the window
	// it waits, and the wait is charged to the request through its due time.
	satWindow = 48
	// warmupPerClient requests, one in flight per client, end the set-up.
	warmupPerClient = 150
	// drainTimeout is how long unfinished requests get after a phase before
	// they count as failed.
	drainTimeout = 5 * time.Second
)

// liveCluster is a booted LocalCluster plus the bookkeeping the generator
// needs: how many requests each client has submitted (client request ids are
// sequential from 1, so this predicts every id) and the KV replicas.
type liveCluster struct {
	w         workload
	lc        *runtime.LocalCluster
	clients   [nClients]*runtime.ClientRuntime
	submitted [nClients]uint64
	// cursor is where the next phase starts in the op pool, so successive
	// phases walk through the pool instead of replaying its head.
	cursor int
	// lost counts requests earlier phases gave up on; their completions may
	// still trickle in and must not be taken for protocol violations.
	lost   int
	kvs    []*app.KV
	walDir string
	// dataRoot is the benchmark's scratch directory inside the checkout.
	dataRoot string
}

// bootCluster starts the f=1 cluster for w with shipped defaults; reg and
// tracer are nil except in the live traced pass.
func bootCluster(w workload, dataRoot string, reg *obs.Registry, tracer obs.Tracer) (*liveCluster, error) {
	c := &liveCluster{w: w, dataRoot: dataRoot}
	opts := runtime.ClusterOptions{
		F:           1,
		Transport:   w.transport,
		ExecWorkers: w.execWorkers,
		Metrics:     reg,
		Tracer:      tracer,
	}
	if w.ops == opKV {
		opts.NewApp = func(types.NodeID) app.Application {
			kv := app.NewKV()
			c.kvs = append(c.kvs, kv)
			return kv
		}
	}
	if w.durable {
		dir, err := os.MkdirTemp(dataRoot, "wal-")
		if err != nil {
			return nil, fmt.Errorf("wal dir: %w", err)
		}
		c.walDir = dir
		opts.DataDir = dir
		opts.WALTune = tuneWAL
	}
	lc, err := runtime.StartLocalCluster(opts)
	if err != nil {
		c.removeWAL()
		return nil, fmt.Errorf("start cluster: %w", err)
	}
	c.lc = lc
	for i := range c.clients {
		cr, err := lc.NewClient(types.ClientID(i))
		if err != nil {
			c.stop()
			return nil, fmt.Errorf("client %d: %w", i, err)
		}
		c.clients[i] = cr
	}
	return c, nil
}

// tuneWAL turns fsync off. The sandbox's virtual disk is nobody's
// deployment hardware, and its fsync latency moved kv-tcp-wal's median
// latency by 8-17 % between identical runs; without it the workload still
// exercises everything the WAL does in software - record encoding, group
// commit, the flusher's writes, the log-before-send wait on every egress
// batch - and wal.fsyncs_per_req still shows how well flushes batch. The
// disk's real sync cost is reported by the direct loop as wal.sync_us.
func tuneWAL(o *wal.Options) { o.NoSync = true }

func (c *liveCluster) removeWAL() {
	if c.walDir != "" {
		os.RemoveAll(c.walDir)
	}
}

func (c *liveCluster) stop() {
	c.lc.Stop()
	c.removeWAL()
}

// submit sends the next request of client k and returns its request id.
func (c *liveCluster) submit(k int, op []byte) uint64 {
	c.clients[k].Submit(op)
	c.submitted[k]++
	return c.submitted[k]
}

// warmUp runs n requests per client, one in flight each, checking every
// reply. It fills caches and establishes TCP connections before timing.
func (c *liveCluster) warmUp(ops [][]byte, n int) error {
	errs := make([]error, nClients)
	var wg sync.WaitGroup
	for k := range c.clients {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				op := ops[(i*nClients+k)%len(ops)]
				id := c.submit(k, op)
				select {
				case done := <-c.clients[k].Completions():
					if uint64(done.ID) != id {
						errs[k] = fmt.Errorf("warm-up: client %d got reply for request %d, expected %d", k, done.ID, id)
						return
					}
					if err := checkResult(c.w, op, done.Result); err != nil {
						errs[k] = fmt.Errorf("warm-up: %w", err)
						return
					}
				case <-time.After(drainTimeout):
					errs[k] = fmt.Errorf("warm-up: client %d request %d timed out", k, id)
					return
				}
			}
		}(k)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// phaseResult is what either phase reports.
type phaseResult struct {
	attempted int
	completed int
	wall      time.Duration
	cpu       time.Duration // process user+sys over the phase
	err       error         // correctness violation (not a timeout)
}

// rateResult adds the open-loop accounting.
type rateResult struct {
	phaseResult
	acct      *openLoop
	faultAt   time.Time // zero when no fault was injected
	outage    time.Duration
	doneTimes *samples // completion instants, ns since phase start
}

// withholdDelay is how long the faulty master primary sits on every
// PRE-PREPARE: eight monitoring periods, so the master instance orders
// nothing until the monitors have replaced it.
const withholdDelay = 2 * time.Second

// muteMasterPrimary makes node 0's master-instance replica, the master
// primary at view 0, withhold its PRE-PREPAREs (the paper's delaying
// primary, taken to the point where nothing gets ordered). Once the
// instance change has moved the primary on, the behaviour has nothing left
// to act on and the cluster is four working nodes again. The two cruder
// faults each have a second state that a run falls into or not
// (README.md, "Behaviours"): pbft.Behavior{Silent: true} on that replica
// also stops its FETCHes, so it wedges the first time it misses a batch and
// takes the backup instance down with it (489 allocations per request
// instead of 617); and stopping the node leaves both instances three
// replicas of which they need all three, where one VIEW-CHANGE in seven
// arrives too early, the new view never starts, and a second instance
// change follows - and after a third the backup primary is the stopped
// node and the cluster stops for good.
func (c *liveCluster) muteMasterPrimary() {
	c.lc.Node(0).WithNode(func(n *core.Node) core.Output {
		n.SetBehavior(core.Behavior{Instance: map[types.InstanceID]pbft.Behavior{
			types.MasterInstance: {PrePrepareDelay: withholdDelay},
		}})
		return core.Output{}
	})
}

// nextMonitorBoundary is when node 1's (a correct node's) monitoring period
// next ends; the nodes boot together, so their periods are in phase.
func (c *liveCluster) nextMonitorBoundary() time.Time {
	var at time.Time
	c.lc.Node(1).WithNode(func(n *core.Node) core.Output {
		at = n.Monitor().NextWake()
		return core.Output{}
	})
	return at
}

// ratePhase offers rate requests/s for dur from one scheduler goroutine
// (this one), round-robin over the clients, and collects completions on the
// same goroutine between due times. No client ever has more than window
// requests in flight (see satWindow for why).
func (c *liveCluster) ratePhase(ops [][]byte, rate, window int, dur, faultAfter time.Duration) rateResult {
	n := int(float64(rate) * dur.Seconds())
	interval := time.Second / time.Duration(rate)
	base, first := c.submitted, c.cursor
	c.cursor += n
	seen := make([]bool, n)
	res := rateResult{doneTimes: newSamples(n)}
	res.attempted = n
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()

	cpu0 := processCPU()
	start := time.Now()
	res.acct = newOpenLoop(schedule{start: start, interval: interval}, n)
	faultDue := start.Add(faultAfter)
	lastDue := res.acct.sched.due(n - 1)

	var inflight [nClients]int
	onDone := func(k int, done client.Completed) {
		now := time.Now()
		j := int64(done.ID) - int64(base[k]) - 1 // index among client k's requests this phase
		if j < 0 && c.lost > 0 {
			return // a request an earlier phase gave up on, completing late
		}
		i := int(j)*nClients + k
		if j < 0 || i >= n || seen[i] {
			res.err = fmt.Errorf("rate phase: client %d completion for unexpected request id %d", k, done.ID)
			return
		}
		seen[i] = true
		inflight[k]--
		if err := checkResult(c.w, ops[(first+i)%len(ops)], done.Result); err != nil && res.err == nil {
			res.err = err
		}
		res.acct.completed(i, now)
		res.doneTimes.record(int64(now.Sub(start)))
		res.completed++
	}

	issued := 0
	phaseLocked := false
loop:
	for res.completed < n && res.err == nil {
		now := time.Now()
		if faultAfter > 0 && res.faultAt.IsZero() && !now.Before(faultDue) {
			if !phaseLocked {
				// Phase-lock the fault to the monitoring period: a fault
				// that lands just after a period boundary is voted out at
				// the end of that same period, one that lands late in a
				// period survives into the next, and the difference is a
				// whole period of outage.
				if b := c.nextMonitorBoundary(); !b.IsZero() {
					faultDue = b.Add(5 * time.Millisecond)
				}
				phaseLocked = true
				continue
			}
			c.muteMasterPrimary()
			res.faultAt = now
		}
		var wait time.Duration
		k := issued % nClients
		switch due := res.acct.sched.due(issued); {
		case issued < n && now.Before(due):
			wait = due.Sub(now)
		case issued < n && inflight[k] < window:
			c.submit(k, ops[(first+issued)%len(ops)])
			res.acct.issued(issued, now)
			inflight[k]++
			issued++
			// Keep draining while catching up so a burst cannot
			// overflow the clients' completion channels.
			wait = 0
		default:
			// Everything is issued, or the next client's window is full:
			// only a completion helps.
			if wait = lastDue.Add(drainTimeout).Sub(now); wait <= 0 {
				break loop
			}
		}
		if wait == 0 {
			select {
			case done := <-c.clients[0].Completions():
				onDone(0, done)
			case done := <-c.clients[1].Completions():
				onDone(1, done)
			default:
			}
			continue
		}
		timer.Reset(wait)
		select {
		case done := <-c.clients[0].Completions():
			onDone(0, done)
		case done := <-c.clients[1].Completions():
			onDone(1, done)
		case <-timer.C:
			continue
		}
		if !timer.Stop() {
			<-timer.C
		}
	}
	res.wall = time.Since(start)
	res.cpu = processCPU() - cpu0
	c.lost += res.attempted - res.completed

	if !res.faultAt.IsZero() {
		// Longest silence between consecutive completions after the fault.
		times := res.doneTimes.sorted()
		prev := int64(res.faultAt.Sub(start))
		for _, t := range times {
			if t < prev {
				continue
			}
			if gap := time.Duration(t - prev); gap > res.outage {
				res.outage = gap
			}
			prev = t
		}
	}
	return res
}

// satResult adds the closed-loop accounting.
type satResult struct {
	phaseResult
	inTime  int // completions before the segment's deadline
	mallocs uint64
	bytes   uint64
	gcPause time.Duration
}

// satPhase keeps satWindow requests in flight per client for dur, one
// goroutine per client, then drains.
func (c *liveCluster) satPhase(ops [][]byte, dur time.Duration) satResult {
	type perClient struct {
		attempted, completed, inTime int
		err                          error
	}
	parts := make([]perClient, nClients)

	lostBefore, first := c.lost, c.cursor
	// Sized, before anything is measured, for more than any plausible
	// capacity; submission stops if one is ever exhausted.
	var seenBy [nClients][]bool
	for k := range seenBy {
		seenBy[k] = make([]bool, int(dur.Seconds()*50000)+satWindow)
	}
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	cpu0 := processCPU()
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for k := range c.clients {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			p := &parts[k]
			base := c.submitted[k]
			seen := seenBy[k]
			next := func() bool {
				if p.attempted == len(seen) {
					return false
				}
				c.submit(k, ops[(first+p.attempted*nClients+k)%len(ops)])
				p.attempted++
				return true
			}
			for i := 0; i < satWindow; i++ {
				next()
			}
			inflight := satWindow
			giveUp := time.NewTimer(dur + drainTimeout)
			defer giveUp.Stop()
			for inflight > 0 {
				select {
				case done := <-c.clients[k].Completions():
					now := time.Now()
					j := int64(done.ID) - int64(base) - 1
					if j < 0 && lostBefore > 0 {
						continue // a request an earlier phase gave up on, completing late
					}
					if j < 0 || j >= int64(p.attempted) || seen[j] {
						p.err = fmt.Errorf("sat phase: client %d completion for unexpected request id %d", k, done.ID)
						return
					}
					seen[j] = true
					if err := checkResult(c.w, ops[(first+int(j)*nClients+k)%len(ops)], done.Result); err != nil {
						p.err = err
						return
					}
					p.completed++
					if !now.Before(deadline) {
						inflight--
						continue
					}
					p.inTime++
					if !next() {
						inflight--
					}
				case <-giveUp.C:
					return
				}
			}
		}(k)
	}
	wg.Wait()
	var res satResult
	res.wall = time.Since(start)
	res.cpu = processCPU() - cpu0
	goruntime.ReadMemStats(&m1)
	res.mallocs = m1.Mallocs - m0.Mallocs
	res.bytes = m1.TotalAlloc - m0.TotalAlloc
	res.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	for _, p := range parts {
		res.attempted += p.attempted
		res.completed += p.completed
		res.inTime += p.inTime
		c.cursor = max(c.cursor, first+p.attempted*nClients)
		if p.err != nil && res.err == nil {
			res.err = p.err
		}
	}
	c.lost += res.attempted - res.completed
	return res
}

// instanceChanges reads every node's instance-change counter.
func (c *liveCluster) instanceChanges() []uint64 {
	cpis := make([]uint64, c.lc.Cluster.N)
	for i := range cpis {
		c.lc.Node(types.NodeID(i)).WithNode(func(n *core.Node) core.Output {
			cpis[i] = n.CPI()
			return core.Output{}
		})
	}
	return cpis
}

// checkInstanceChanges requires between lo and hi instance changes: the
// same count on at least a quorum of nodes (a faulty node may lag) and no
// node past it.
func (c *liveCluster) checkInstanceChanges(lo, hi uint64) error {
	cpis := c.instanceChanges()
	top := slices.Max(cpis)
	at := 0
	for _, v := range cpis {
		if v == top {
			at++
		}
	}
	fmt.Printf("# %s: instance changes per node %v\n", c.w.name, cpis)
	if top < lo || top > hi || at < c.lc.Cluster.Quorum() {
		return fmt.Errorf("instance changes per node %v, expected %d to %d, agreed by a quorum", cpis, lo, hi)
	}
	return nil
}

// checkReplicasAgree waits for the KV replicas to converge (the slowest node
// may still be executing the last batches). All four normally end
// identical. RBFT only promises progress on 2f+1 replicas, and once the
// load stops nothing pulls a straggler forward, so the gate is: a quorum of
// replicas is identical, and whatever a straggler holds is well-formed (each
// value was PUT to the key it sits under).
func (c *liveCluster) checkReplicasAgree() error {
	if len(c.kvs) == 0 {
		return nil
	}
	deadline := time.Now().Add(drainTimeout)
	for {
		snaps := make([]map[string]string, len(c.kvs))
		for i, kv := range c.kvs {
			snaps[i] = kv.Snapshot()
		}
		// The reference is the state most replicas hold.
		ref, agree := 0, 0
		for i := range snaps {
			n := 0
			for j := range snaps {
				if reflect.DeepEqual(snaps[i], snaps[j]) {
					n++
				}
			}
			if n > agree {
				ref, agree = i, n
			}
		}
		if agree == len(snaps) && len(snaps[ref]) > 0 {
			return nil
		}
		if time.Now().Before(deadline) {
			time.Sleep(20 * time.Millisecond)
			continue
		}
		if agree < c.lc.Cluster.Quorum() || len(snaps[ref]) == 0 {
			return fmt.Errorf("KV replicas disagree after the run: only %d of %d identical", agree, len(snaps))
		}
		for i, s := range snaps {
			for k, v := range s {
				if len(k) != len("k0000") || len(v) != kvValueLen || v[:len("0000:")] != k[1:]+":" {
					return fmt.Errorf("KV replica %d holds %q under key %q", i, v, k)
				}
			}
		}
		fmt.Printf("# %s: %d of %d KV replicas identical after the run, the rest lag\n", c.w.name, agree, len(snaps))
		return nil
	}
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set in MB (ru_maxrss is kB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
