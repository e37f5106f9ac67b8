// Package universal implements oblivious universal constructions over
// LL/SC shared memory — the class of constructions the paper's lower bound
// applies to, and the one that witnesses its tightness.
//
// A universal construction turns the sequential specification of any type T
// (package objtype) into a wait-free linearizable shared object of type T.
// It is *oblivious* when it uses T only through its transition function,
// never exploiting its semantics. The paper shows (Theorem 6.1 + Corollary
// 6.1) that any oblivious construction on this memory costs Ω(log n)
// shared accesses per operation in the worst case, and that the
// Group-Update construction of Afek, Dauber and Touitou — after two minor
// modifications — achieves O(log n), making the bound tight.
//
// Three constructions are provided:
//
//   - GroupUpdate: a binary combining tree over unbounded registers;
//     worst-case Θ(log n) shared accesses per operation. See NewGroupUpdate
//     for the two modifications relative to the original construction.
//   - Herlihy: the classic announce-and-help construction; worst-case
//     Θ(n) per operation. The baseline the paper's introduction compares
//     against.
//   - Central: a single-register LL/SC retry loop; lock-free but not
//     wait-free (O(n) expected under contention, unbounded worst case).
//     Included as the simplest correct implementation and as a foil for
//     the wait-freedom discussions.
//
// All three run unchanged on the simulated memory (machine.Env) and on the
// concurrent memory (llsc.Handle) through machine.Port.
//
// Every construction answers an operation by replaying the type over the
// linearization log up to the operation's record. Each instance memoises
// that replay (replayMemo), so a run applies each record once instead of
// once per operation that follows it. The memo is a cache of a pure
// function of the log and performs no shared access: no response, step
// count or schedule — hence no paper-level output — depends on it.
package universal

import (
	"fmt"
	"strings"
	"sync"

	"jayanti98/internal/machine"
	"jayanti98/internal/objtype"
	"jayanti98/internal/shmem"
)

// Record is one announced operation: the invoking process, its per-process
// sequence number, and the operation. A record's identity is (Pid, Seq).
type Record struct {
	Pid int
	Seq int
	Op  objtype.Op
}

// String renders the record.
func (r Record) String() string {
	return fmt.Sprintf("p%d#%d:%v", r.Pid, r.Seq, r.Op)
}

// Log is an immutable sequence of records. Logs stored in shared registers
// must never be modified in place; all log operations copy.
type Log []Record

// Contains reports whether the log holds the record with identity
// (pid, seq).
func (l Log) Contains(pid, seq int) bool {
	for _, r := range l {
		if r.Pid == pid && r.Seq == seq {
			return true
		}
	}
	return false
}

// IndexOf returns the position of record (pid, seq), or -1.
func (l Log) IndexOf(pid, seq int) int {
	for i, r := range l {
		if r.Pid == pid && r.Seq == seq {
			return i
		}
	}
	return -1
}

// Ops projects the log onto its operations.
func (l Log) Ops() []objtype.Op {
	ops := make([]objtype.Op, len(l))
	for i, r := range l {
		ops[i] = r.Op
	}
	return ops
}

// asLog interprets a register value as a Log (nil → empty).
func asLog(v any) Log {
	if v == nil {
		return nil
	}
	l, ok := v.(Log)
	if !ok {
		panic(fmt.Sprintf("universal: register holds %T, want Log", v))
	}
	return l
}

// merge returns base extended, in order, with the records of the extra
// logs that base does not already contain (first occurrence wins). The
// result shares no backing storage with base.
//
// Membership is one bitset keyed by Pid·(maxSeq+1)+Seq, sized by a
// pre-scan of the inputs; logs carry at most a few records per process,
// so the set usually fits the stack buffer and merge allocates only its
// result.
func merge(base Log, extras ...Log) Log {
	maxPid, maxSeq := 0, 0
	scan := func(l Log) {
		for _, r := range l {
			maxPid = max(maxPid, r.Pid)
			maxSeq = max(maxSeq, r.Seq)
		}
	}
	scan(base)
	for _, extra := range extras {
		scan(extra)
	}
	stride := maxSeq + 1
	var buf [8]uint64
	seen := buf[:]
	if words := ((maxPid+1)*stride + 63) / 64; words > len(buf) {
		seen = make([]uint64, words)
	}
	// add marks r and reports whether it was new.
	add := func(r Record) bool {
		k := r.Pid*stride + r.Seq
		w, bit := k/64, uint64(1)<<(k%64)
		if seen[w]&bit != 0 {
			return false
		}
		seen[w] |= bit
		return true
	}
	for _, r := range base {
		add(r)
	}
	out := make(Log, len(base), len(base)+4)
	copy(out, base)
	for _, extra := range extras {
		for _, r := range extra {
			if add(r) {
				out = append(out, r)
			}
		}
	}
	return out
}

// Construction is a universal construction instantiated with a type: a
// descriptor whose object state lives entirely in shared registers (its
// only Go state is a replay memo, a cache of a pure function of the log)
// and whose Invoke performs one operation on behalf of the process behind
// the port.
type Construction interface {
	// Name identifies the construction.
	Name() string
	// Type returns the sequential type the construction was instantiated
	// with.
	Type() objtype.Type
	// Invoke applies op and returns its response.
	Invoke(p machine.Port, op objtype.Op) objtype.Value
	// Registers returns how many consecutive registers, starting at the
	// construction's base, the object occupies.
	Registers() int
	// StepBound returns a worst-case bound on shared accesses per Invoke,
	// or 0 if the construction is not wait-free.
	StepBound() int
}

// Names lists the provided constructions in presentation order — the
// accepted names for New.
func Names() []string { return []string{"group-update", "herlihy", "central"} }

// New builds the named construction over typ for n processes with its
// registers starting at base. The object's state lives in shared
// registers; the instance's only mutable Go state is its replay memo
// (replayMemo), a concurrency-safe cache of a pure function of the log
// that can change no response, step count or schedule. Distinct simulated
// runs must still not share one instance's registers — sweep work items
// should each build their own via New.
func New(name string, typ objtype.Type, n, base int) (Construction, error) {
	switch name {
	case "group-update":
		return NewGroupUpdate(typ, n, base), nil
	case "herlihy":
		return NewHerlihy(typ, n, base), nil
	case "central":
		return NewCentral(typ, n, base), nil
	}
	return nil, fmt.Errorf("universal: unknown construction %q (want %s)", name, strings.Join(Names(), ", "))
}

// Must unwraps a New result whose name is known at compile time.
func Must(c Construction, err error) Construction {
	if err != nil {
		panic(err)
	}
	return c
}

// replayMemo answers "what did record (pid, seq) return?" for one
// construction instance — the "response by local replay" modification
// (see NewGroupUpdate) — without re-running the sequential specification
// from Init on every call. It holds the records it has replayed, their
// responses, and the state after the last of them. A lookup compares the
// log with the memo record by record, by full content (pid, seq, op name
// and argument):
//
//   - the record's prefix is already in the memo: return the stored
//     response;
//   - the log extends the memo: apply only the new records;
//   - the log diverges from the memo (the mutant's reordering, or
//     another branch of an exhaustive search reusing the instance):
//     start again from Init.
//
// Apply is pure, so every response is the same function of the log prefix
// that objtype.Replay computes, bit for bit. The memo is Go-local
// computation and performs no shared access, so it changes no step count,
// schedule or paper-level output. The mutex makes one instance safe to
// share among the goroutines of a concurrent (llsc) memory.
type replayMemo struct {
	typ objtype.Type
	n   int

	mu    sync.Mutex
	recs  Log
	resps []objtype.Value
	state objtype.Value
}

func newReplayMemo(typ objtype.Type, n int) *replayMemo {
	return &replayMemo{typ: typ, n: n}
}

// response returns the response of record (pid, seq) in log.
func (m *replayMemo) response(log Log, pid, seq int) objtype.Value {
	idx := log.IndexOf(pid, seq)
	if idx < 0 {
		panic(fmt.Sprintf("universal: record p%d#%d missing from linearization log", pid, seq))
	}
	prefix := log[:idx+1]
	m.mu.Lock()
	defer m.mu.Unlock()
	k := 0
	for k < len(prefix) && k < len(m.recs) && sameRecord(prefix[k], m.recs[k]) {
		k++
	}
	if k < len(prefix) && k < len(m.recs) || len(m.recs) == 0 {
		m.recs, m.resps, m.state = m.recs[:0], m.resps[:0], m.typ.Init(m.n)
		k = 0
	}
	for _, r := range prefix[k:] {
		var resp objtype.Value
		m.state, resp = m.typ.Apply(m.state, r.Op)
		m.recs = append(m.recs, r)
		m.resps = append(m.resps, resp)
	}
	return m.resps[idx]
}

// sameRecord compares two records by full content.
func sameRecord(a, b Record) bool {
	return a.Pid == b.Pid && a.Seq == b.Seq && a.Op.Name == b.Op.Name && shmem.ValuesEqual(a.Op.Arg, b.Op.Arg)
}
