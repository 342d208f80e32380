// Package a exercises the pipeblock analyzer: blocking operations and mutex
// calls inside //rbft:verifier, //rbft:egress, //rbft:wal and //rbft:exec
// annotated functions, and the non-blocking idioms (and unannotated
// functions) that stay silent.
package a

import (
	"sync"
	"time"
)

// server is a lock-taking neighbour: calls into locked() from a hot path
// wait on the mutex inside the callee.
type server struct {
	mu sync.Mutex
	n  int
}

func (s *server) locked() {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
}

// ---- channel sends ----

//rbft:verifier
func verifyUnbuffered() {
	ch := make(chan int)
	ch <- 1 // want `bare channel send in rbft:verifier function`
}

//rbft:verifier
func verifyUnknownCapacity(out chan<- int, v int) {
	out <- v // want `bare channel send in rbft:verifier function`
}

//rbft:egress
func egressBufferedStillBare() {
	ch := make(chan int, 8)
	ch <- 1 // want `bare channel send in rbft:egress function`
}

// plainSend is unannotated: sends are its own business.
func plainSend(ch chan int) {
	ch <- 1 // silent
}

// ---- selects ----

//rbft:egress
func egressSendSelectNoDefault(ch chan int, stop chan struct{}) {
	select { // want `select with a send case and no default in rbft:egress function`
	case ch <- 1:
	case <-stop:
	}
}

//rbft:egress
func egressNonBlockingSend(ch chan int) {
	select { // non-blocking handoff: silent
	case ch <- 1:
	default:
	}
}

//rbft:egress
func egressReceiveSelect(q chan int, stop chan struct{}) {
	select { // parking on empty ingress is the idle state: silent
	case <-q:
	case <-stop:
	}
}

//rbft:wal
func walEmptySelect() {
	select {} // want `empty select in rbft:wal function blocks forever`
}

// ---- blocking calls ----

//rbft:wal
func walSleep() {
	time.Sleep(time.Millisecond) // want `time\.Sleep in rbft:wal function`
}

//rbft:verifier
func verifyWait(wg *sync.WaitGroup) {
	wg.Wait() // want `wg\.Wait in rbft:verifier function`
}

//rbft:verifier
func verifyCondWait(c *sync.Cond) {
	c.Wait() // want `c\.Wait in rbft:verifier function`
}

//rbft:verifier
func verifyCallsLockTaker(s *server) {
	s.locked() // want `call to locked in rbft:verifier function`
}

// verifyCallsClean calls a lock-free same-package helper: silent.
//
//rbft:verifier
func verifyCallsClean(s *server) {
	release(s)
}

func release(s *server) { s.n = 0 }

// plainCalls is unannotated: locking and sleeping are fine off the hot path.
func plainCalls(s *server, wg *sync.WaitGroup) {
	s.locked()
	wg.Wait()
	time.Sleep(time.Millisecond)
}

// ---- mutex calls, on any receiver ----

//rbft:verifier
func (s *server) verifyDirty() int {
	s.mu.Lock()         // want `s\.mu\.Lock in rbft:verifier function: a pipeline stage must not take or release a mutex`
	defer s.mu.Unlock() // want `s\.mu\.Unlock in rbft:verifier function: a pipeline stage must not take or release a mutex`
	return s.n
}

//rbft:wal
func (s *server) walWriteDirty() int {
	s.mu.Lock()         // want `s\.mu\.Lock in rbft:wal function`
	defer s.mu.Unlock() // want `s\.mu\.Unlock in rbft:wal function`
	return s.n
}

//rbft:egress
func (s *server) egressDirty() int {
	s.mu.Lock()         // want `s\.mu\.Lock in rbft:egress function`
	defer s.mu.Unlock() // want `s\.mu\.Unlock in rbft:egress function`
	return s.n
}

//rbft:exec
func (s *server) execDirty() int {
	s.mu.Lock()         // want `s\.mu\.Lock in rbft:exec function`
	defer s.mu.Unlock() // want `s\.mu\.Unlock in rbft:exec function`
	return s.n
}

// A mutex passed in as a parameter is still a mutex.
//
//rbft:exec
func execParamLock(mu *sync.Mutex, rw *sync.RWMutex) {
	mu.Lock()    // want `mu\.Lock in rbft:exec function`
	mu.Unlock()  // want `mu\.Unlock in rbft:exec function`
	rw.RLock()   // want `rw\.RLock in rbft:exec function`
	rw.RUnlock() // want `rw\.RUnlock in rbft:exec function`
}

// ---- exec shards ----

// execShardClean is the intended shard shape: a strided loop writing result
// slots, all synchronisation left to the coordinator. Silent.
//
//rbft:exec
func execShardClean(idx []int, shard, stride int, results []int) {
	for p := shard; p < len(idx); p += stride {
		results[idx[p]] = p
	}
}

//rbft:exec
func execShardWaits(wg *sync.WaitGroup) {
	wg.Wait() // want `wg\.Wait in rbft:exec function`
}

//rbft:exec
func execShardSends(ch chan int) {
	ch <- 1 // want `bare channel send in rbft:exec function`
}

//rbft:exec
func execShardCallsLockTaker(s *server) {
	s.locked() // want `call to locked in rbft:exec function`
}

// ---- suppression ----

//rbft:egress
func suppressedHandoff(ch chan int) {
	//rbft:ignore pipeblock -- handoff channel has a dedicated unbounded consumer
	ch <- 1
}
