// Package llsc provides a concurrent, linearizable implementation of the
// paper's shared memory (LL, SC, validate, swap, move on an unbounded
// register file) that real goroutines can share.
//
// The register file and its §3 semantics live in package shmem, the
// single-threaded simulator the lower-bound machinery drives step by step.
// Memory is that simulator behind one mutex: every method locks and
// delegates, so each operation is atomic (trivially linearizable, with the
// critical section as the linearization point) and the responses, step
// counts and fingerprint bytes are shmem's own.
//
// Each process obtains a Handle bound to its process id. Handle implements
// machine.Port over any Backend — this package's Memory or the Blelloch–Wei
// construction of package algos/bwllsc — so the universal constructions of
// package universal run unchanged on either, the "mimic the construction
// with goroutines" side of the reproduction.
package llsc

import (
	"fmt"
	"sync"

	"jayanti98/internal/machine"
	"jayanti98/internal/shmem"
)

// Memory is a concurrent shared memory for n processes: a shmem.Memory
// guarded by a mutex. All methods are safe for concurrent use.
type Memory struct {
	n   int
	mu  sync.Mutex
	mem *shmem.Memory
}

// Option configures a Memory.
type Option = shmem.Option

// WithInit sets the initial value of every register as a pure function of
// its index (default: nil).
func WithInit(f func(reg int) shmem.Value) Option { return shmem.WithInit(f) }

// New creates a concurrent shared memory for n processes.
func New(n int, opts ...Option) *Memory {
	return &Memory{n: n, mem: shmem.New(opts...)}
}

// N returns the number of processes the memory was created for.
func (m *Memory) N() int { return m.n }

// Handle returns the port of process pid. Handles are lightweight; any
// number may be created. A handle must only be used by one goroutine at a
// time (per the model, a process is sequential), but distinct handles may
// be used concurrently.
func (m *Memory) Handle(pid int) *Handle { return NewHandle(m, pid) }

// Steps returns pid's shared-access step count.
func (m *Memory) Steps(pid int) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.mem.Steps(pid)
}

// TotalSteps returns the total shared-access step count.
func (m *Memory) TotalSteps() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.mem.TotalSteps()
}

// Apply performs op on behalf of pid and returns the response of
// shmem.Memory.Apply. It makes *Memory implement sched.Memory, so the
// step-driven executors — sched.Execute and the schedule-exploration
// engine of package explore — can drive machines against it.
func (m *Memory) Apply(pid int, op shmem.Op) shmem.Response {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.mem.Apply(pid, op)
}

// AppendFingerprint appends the binary rendering of the register-file state
// (shmem.Memory.AppendFingerprint, which documents the format). The
// exploration harness builds its memoization keys this way (DESIGN §11).
func (m *Memory) AppendFingerprint(dst []byte) []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.mem.AppendFingerprint(dst)
}

// ReadQuiesced returns the value of register i without charging a step
// (shmem.Memory.Read). It is intended for inspection after the concurrent
// workload has quiesced; it still takes the lock, so it is safe at any
// time. Reading an untouched register returns its initial value without
// allocating it, so the fingerprint is unchanged.
func (m *Memory) ReadQuiesced(i int) shmem.Value {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.mem.Read(i)
}

// Handle is one process's port to a Backend. It implements machine.Port by
// turning each call into a shmem.Op for Backend.Apply.
type Handle struct {
	b   Backend
	pid int
}

var _ machine.Port = (*Handle)(nil)

// NewHandle returns the port of process pid on b. It panics if pid is
// outside [0, b.N()).
func NewHandle(b Backend, pid int) *Handle {
	if pid < 0 || pid >= b.N() {
		panic(fmt.Sprintf("llsc: pid %d out of range [0,%d)", pid, b.N()))
	}
	return &Handle{b: b, pid: pid}
}

// ID implements machine.Port.
func (h *Handle) ID() int { return h.pid }

// N implements machine.Port.
func (h *Handle) N() int { return h.b.N() }

// LL implements machine.Port.
func (h *Handle) LL(reg int) shmem.Value {
	return h.b.Apply(h.pid, shmem.Op{Kind: shmem.OpLL, Reg: reg}).Val
}

// SC implements machine.Port.
func (h *Handle) SC(reg int, v shmem.Value) (bool, shmem.Value) {
	r := h.b.Apply(h.pid, shmem.Op{Kind: shmem.OpSC, Reg: reg, Arg: v})
	return r.OK, r.Val
}

// Validate implements machine.Port.
func (h *Handle) Validate(reg int) (bool, shmem.Value) {
	r := h.b.Apply(h.pid, shmem.Op{Kind: shmem.OpValidate, Reg: reg})
	return r.OK, r.Val
}

// Read implements machine.Port (a validate with the boolean dropped).
func (h *Handle) Read(reg int) shmem.Value {
	_, v := h.Validate(reg)
	return v
}

// Swap implements machine.Port.
func (h *Handle) Swap(reg int, v shmem.Value) shmem.Value {
	return h.b.Apply(h.pid, shmem.Op{Kind: shmem.OpSwap, Reg: reg, Arg: v}).Val
}

// Move implements machine.Port.
func (h *Handle) Move(src, dst int) {
	h.b.Apply(h.pid, shmem.Op{Kind: shmem.OpMove, Src: src, Reg: dst})
}
