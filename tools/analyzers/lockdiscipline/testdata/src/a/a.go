// Package a contains lock-discipline violations for the self-test.
package a

import "sync"

// Registry is a shared table with annotated guarded fields.
type Registry struct {
	mu sync.Mutex
	// guarded by mu
	entries map[string]int
	done    bool // guarded by mu

	hits int // unguarded on purpose: no annotation, never checked
}

// good: lock held around access.
func (r *Registry) Put(k string, v int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.entries[k] = v
	r.done = false
}

// bad: no lock anywhere in the function.
func (r *Registry) Leak(k string) int {
	return r.entries[k] // want `r\.entries is guarded by r\.mu, which this function never locks`
}

// bad: access lexically before the acquisition.
func (r *Registry) Early() int {
	n := len(r.entries) // want `r\.entries is guarded by r\.mu but accessed before the lock is taken`
	r.mu.Lock()
	defer r.mu.Unlock()
	return n + len(r.entries)
}

// good: Locked suffix means the caller holds the mutex.
func (r *Registry) sizeLocked() int {
	return len(r.entries)
}

// good: constructor initialises before publication.
func NewRegistry() *Registry {
	r := &Registry{}
	r.entries = make(map[string]int)
	return r
}

// good: unguarded field needs no lock.
func (r *Registry) Hits() int { return r.hits }

// suppressed: justified lock-free read.
func (r *Registry) Racy() bool {
	//rbft:ignore lockdiscipline -- monotonic flag read, stale value acceptable
	return r.done
}

// ---- pipeline stages (pipeblock.Stage): no exemptions ----

// good: a verifier worker that only touches unguarded state.
//
//rbft:verifier
func (r *Registry) verifyClean() int {
	return r.hits
}

// bad: holding no lock does not excuse a stage touching guarded state. (A
// stage that takes the lock first is pipeblock's finding, not this one's.)
//
//rbft:verifier
func (r *Registry) verifySneaky() bool {
	return r.done // want `r\.done is guarded by r\.mu, which this function never locks \(no caller holds a lock for a pipeline stage\)`
}

//rbft:wal
func (r *Registry) walSneaky() bool {
	return r.done // want `r\.done is guarded by r\.mu, which this function never locks \(no caller holds a lock for a pipeline stage\)`
}

//rbft:egress
func (r *Registry) egressSneaky() bool {
	return r.done // want `r\.done is guarded by r\.mu, which this function never locks \(no caller holds a lock for a pipeline stage\)`
}

//rbft:exec
func (r *Registry) execSneaky() bool {
	return r.done // want `r\.done is guarded by r\.mu, which this function never locks \(no caller holds a lock for a pipeline stage\)`
}

// bad: a stage gets no Locked-suffix exemption: no caller holds a lock for it.
//
//rbft:egress
func (r *Registry) egressSizeLocked() int {
	return len(r.entries) // want `r\.entries is guarded by r\.mu, which this function never locks \(no caller holds a lock for a pipeline stage\)`
}

// bad: nor a constructor exemption: a stage publishes nothing it builds.
//
//rbft:exec
func execBuilds() *Registry {
	r := &Registry{}
	r.done = true // want `r\.done is guarded by r\.mu, which this function never locks \(no caller holds a lock for a pipeline stage\)`
	return r
}

// bad: value receiver copies the mutex.
func (r Registry) Copied() int { // want `value receiver copies a lock`
	return r.hits
}

// bad: value parameter and copy assignment.
func consume(r Registry) { // want `value parameter copies a lock`
	cp := r // want `assignment copies a lock`
	_ = cp
}

// bad: range over a slice of lock-containing values.
func sweep(rs []Registry) {
	for _, r := range rs { // want `range value copies a lock`
		_ = r
	}
}
