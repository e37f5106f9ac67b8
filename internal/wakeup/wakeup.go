// Package wakeup implements algorithms for the n-process wakeup problem of
// Fischer, Moran, Rudich and Taubenfeld, as specified in Section 1.1 of the
// paper: (1) every process terminates in a finite number of its own steps,
// returning 0 or 1; (2) in every run in which all processes terminate, at
// least one process returns 1; and (3) no process returns 1 before every
// process has taken at least one step.
//
// The algorithms here communicate only through LL, SC, validate, swap, and
// move on shared memory — the operation set the lower bound is proved
// against — so the adversary of package core applies to all of them:
//
//   - SetRegister: correct; one unbounded register accumulating ids;
//     wait-free with O(n) worst-case steps (the adversary forces Θ(n)).
//   - DoubleRegister: correct and randomized; ids accumulate in one of two
//     registers chosen by coin toss; exercises the randomized form of
//     Theorem 6.1 (Lemma 3.1 with termination probability c = 1).
//   - Cheater: deliberately incorrect — it returns 1 after one operation.
//     CatchFastWakeup exhibits its spec violation via the (S,A)-run,
//     demonstrating the proof mechanics of Theorem 6.1.
//   - Reductions via shared objects (reduction.go): the Theorem 6.2
//     algorithms in which each process performs at most two operations on
//     one linearizable object (fetch&increment, fetch&and, fetch&or,
//     fetch&complement, fetch&multiply, queue, stack, read/increment).
package wakeup

import (
	"fmt"
	"strconv"
	"strings"

	"jayanti98/internal/machine"
	"jayanti98/internal/shmem"
)

// setReg is the single shared register used by SetRegister.
const setReg = 0

// EncodeBits encodes a pid set as a canonical comma-separated string of
// increasing pids — the unbounded register contents of the
// set-accumulation algorithms (a bitset iterates in increasing order, so
// no sort is needed). The algorithm bodies use the bitset form on their
// LL/SC retry loops — profiling the adversary benchmarks showed a
// map+sort+join encoding dominating every wakeup run.
func EncodeBits(set shmem.PidBits) string {
	buf := make([]byte, 0, 4*set.Count())
	set.Each(func(p int) {
		if len(buf) > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(p), 10)
	})
	return string(buf)
}

// DecodeBits decodes EncodeBits output into dst (cleared first; nil and
// "" decode to the empty set), reusing dst's backing array — the retry
// loops decode on every LL, so the register hot path stays
// allocation-light.
func DecodeBits(v shmem.Value, dst shmem.PidBits) shmem.PidBits {
	dst.Clear()
	s, _ := v.(string)
	for s != "" {
		part := s
		if i := strings.IndexByte(s, ','); i >= 0 {
			part, s = s[:i], s[i+1:]
		} else {
			s = ""
		}
		p, err := strconv.Atoi(part)
		if err != nil {
			panic(fmt.Sprintf("wakeup: corrupt pid set register %q", v))
		}
		dst.Add(p)
	}
	return dst
}

// SetRegister returns the set-accumulation wakeup algorithm: one unbounded
// register holds the set of processes known to be up; each process
// LL/SC-retries to insert its own id; the process whose successful SC
// completes the set returns 1 (there is exactly one such process, because
// the register's set grows monotonically).
//
// Wait-freedom: every failed SC is caused by another process's successful
// SC, and each process performs exactly one successful SC, so a process
// retries at most n−1 times — O(n) worst-case shared accesses. The
// adversary in fact forces Θ(n): in its lockstep rounds only the smallest
// linked pid succeeds each round.
func SetRegister() machine.Algorithm {
	return machine.NewCompiled("wakeup/set-register", func(e *machine.Env) shmem.Value {
		var set shmem.PidBits
		for {
			set = DecodeBits(e.LL(setReg), set)
			set.Add(e.ID())
			ok, _ := e.SC(setReg, EncodeBits(set))
			if ok {
				if set.Count() == e.N() {
					return 1
				}
				return 0
			}
		}
	}, setRegisterChunk)
}

// DoubleRegister returns the randomized variant: each process tosses a coin
// to pick one of two set registers, inserts its id there (LL/SC retry
// loop), and then reads both registers; it returns 1 iff their union covers
// all n processes. The process whose final reads happen last sees every
// insertion, so condition (2) holds in every terminating run; condition (3)
// holds because an id enters a register only by its owner's step. The
// algorithm terminates with probability 1 (indeed always), so the
// randomized bound of Theorem 6.1 applies with c = 1.
func DoubleRegister() machine.Algorithm {
	return machine.NewCompiled("wakeup/double-register", func(e *machine.Env) shmem.Value {
		reg := int(e.Toss()) & 1
		var set shmem.PidBits
		for {
			set = DecodeBits(e.LL(reg), set)
			set.Add(e.ID())
			if ok, _ := e.SC(reg, EncodeBits(set)); ok {
				break
			}
		}
		union := DecodeBits(e.Read(0), nil)
		DecodeBits(e.Read(1), nil).Each(union.Add)
		if union.Count() == e.N() {
			return 1
		}
		return 0
	}, doubleRegisterChunk)
}

// Cheater returns the deliberately incorrect algorithm: each process
// announces itself with one swap and immediately claims every process is
// up. For n > 4 this violates Theorem 6.1 (1 < log₄ n), and the violation
// is exhibited by core.CatchFastWakeup: in the ({p},A)-run the winner still
// returns 1 although no other process ever takes a step.
func Cheater() machine.Algorithm {
	return machine.NewCompiled("wakeup/cheater", func(e *machine.Env) shmem.Value {
		e.Swap(e.ID(), 1)
		return 1
	}, cheaterChunk)
}

// MoveCourier is a correct wakeup algorithm that exercises move and swap:
// each process publishes its knowledge with swap on its own register, uses
// move to copy its register into a shared relay slot, and accumulates
// knowledge by reading the relay and other processes' registers through an
// LL/SC set register. It is deliberately operation-diverse so that the
// adversary's move phase (and the secretive schedule) is exercised by a
// real algorithm; its step complexity is O(n).
func MoveCourier() machine.Algorithm {
	const (
		relay = 1 // moves land here
		acc   = 0 // LL/SC set register
	)
	ownReg := func(pid int) int { return 10 + pid }
	return machine.NewCompiled("wakeup/move-courier", func(e *machine.Env) shmem.Value {
		// Publish own id.
		var own shmem.PidBits
		own.Add(e.ID())
		e.Swap(ownReg(e.ID()), EncodeBits(own))
		// Copy own register into the relay: the move phase of each round
		// now has real work, scheduled secretively by the adversary.
		e.Move(ownReg(e.ID()), relay)
		// Accumulate: merge what the relay shows, then LL/SC-insert into
		// the shared set register until our insertion lands.
		var know shmem.PidBits
		know.Add(e.ID())
		DecodeBits(e.Read(relay), nil).Each(know.Add)
		var set shmem.PidBits
		for {
			set = DecodeBits(e.LL(acc), set)
			set.Each(know.Add)
			if ok, _ := e.SC(acc, EncodeBits(know)); ok {
				break
			}
		}
		if know.Count() == e.N() {
			return 1
		}
		// One last look: the set register may have completed meanwhile;
		// but only claim victory if we were the completing writer.
		return 0
	}, moveCourierChunk)
}
