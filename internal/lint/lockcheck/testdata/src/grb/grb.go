// Package grb is the lockcheck corpus: a miniature of the object/registry
// locking structure. The analyzer flags calls to lock-acquiring grb entry
// points made while a mutex is held, so the corpus carries both the entry
// points and the offending callers in one package named grb, like the real
// module.
package grb

import "sync"

// Matrix is a stub object with the real layout's internal mutex.
type Matrix struct {
	mu    sync.Mutex
	freed bool
}

// Wait is a lock-acquiring entry point.
func (m *Matrix) Wait() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return nil
}

// Nvals is a lock-acquiring read.
func (m *Matrix) Nvals() (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return 0, nil
}

// push is the sequence core's lock-acquiring append.
func (m *Matrix) push() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return nil
}

// materializeLocked documents that the caller already holds m.mu.
func (m *Matrix) materializeLocked() {}

// resolveCtx stands in for the context-registry resolution path (takes the
// registry lock).
func resolveCtx() {}

// NewContext registers a context (takes the registry lock).
func NewContext() *Matrix { return &Matrix{} }

func (m *Matrix) deadlockSelf() {
	m.mu.Lock()
	defer m.mu.Unlock()
	_ = m.Wait() // want `call to Wait while holding m\.mu`
}

func (m *Matrix) pushUnderLock() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.push() // want `call to push while holding m\.mu`
}

func (m *Matrix) readUnderLock() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, _ := m.Nvals() // want `call to Nvals while holding m\.mu`
	return n
}

func (m *Matrix) registryUnderObjectLock() {
	m.mu.Lock()
	resolveCtx() // want `call to resolveCtx while holding m\.mu`
	m.mu.Unlock()
}

func (m *Matrix) doubleLock() {
	m.mu.Lock()
	m.mu.Lock() // want `m\.mu\.Lock\(\) while m\.mu is already held`
	m.mu.Unlock()
	m.mu.Unlock()
}

// lockedHelperOK: *Locked helpers are the blessed way to work under the lock.
func (m *Matrix) lockedHelperOK() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.materializeLocked()
}

// releaseFirstOK: the protocol — unlock, then call the entry point.
func (m *Matrix) releaseFirstOK() error {
	m.mu.Lock()
	m.freed = false
	m.mu.Unlock()
	return m.Wait()
}

// sequenceStepOK: closures are deferred sequence steps that run under the
// owning object's lock by design; their bodies are out of scope.
func (m *Matrix) sequenceStepOK() func() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return func() error { return m.Wait() }
}

// goroutineOK: a spawned goroutine does not inherit the caller's locks.
func (m *Matrix) goroutineOK() {
	m.mu.Lock()
	defer m.mu.Unlock()
	go func() { _ = m.Wait() }()
}

// registryBeforeObjectOK: resolve the context before taking the object lock.
func (m *Matrix) registryBeforeObjectOK() {
	resolveCtx()
	m.mu.Lock()
	defer m.mu.Unlock()
}

// suppressed: the shutdown path really does hold both (registry drains the
// object), and documents it.
func (m *Matrix) suppressed() {
	m.mu.Lock()
	defer m.mu.Unlock()
	resolveCtx() //grblint:ignore lockcheck -- corpus: shutdown path owns both locks by construction
}
