// Package vmachine is a bytecode virtual machine for the process model of
// package machine: a one-time compiler from structured algorithm programs
// (prog.go) to compact chunks of toss/LL/SC/validate/read/swap/move/return
// opcodes (chunk.go), executed on a tagged-value register machine (exec.go)
// with no interface{} boxing of coin outcomes or local values.
//
// The package exists for raw speed on the adversary and exploration hot
// paths: the direct-style interpreter of package machine runs each process
// as a coroutine and pays two coroutine switches per shared-memory step
// (a few hundred nanoseconds), while an Exec steps in-line in a few tens
// of nanoseconds and its whole state is a flat locals array that can be
// snapshotted by copying.
//
// Chunks are immutable after Compile and safely shared read-only by any
// number of Execs on any number of goroutines. Algorithm-specific helpers
// (pid-set codecs, arithmetic beyond the built-in operators) enter
// compiled code through a native-function registry (native.go), the
// bridge-to-Go-builtins design of the exemplar VMs.
//
// Equivalence with the interpreter is not assumed, it is tested: package
// lockstep runs the two engines in lockstep over identical schedules —
// exhaustively at small n and under fuzzing — asserting identical actions,
// responses, register files, history digests, step counts, and return
// values at every step.
package vmachine

import (
	"fmt"

	"jayanti98/internal/shmem"
)

// Kind tags a VM value.
type Kind uint8

// The value kinds. KInt and KI64 are deliberately distinct: shared-register
// values are compared with structural equality (shmem.ValuesEqual), under
// which int(1) and int64(1) differ, so the VM must preserve the exact
// dynamic type an algorithm body would have produced.
const (
	KNil  Kind = iota
	KInt       // Go int, payload in I
	KI64       // Go int64 (coin-toss outcomes), payload in I
	KBool      // payload in I (0 or 1)
	KStr       // payload in S
	KSet       // payload in Set; never escapes to shared memory unencoded
	KAny       // fallback for exotic shared-register values, payload in Any
)

// Value is a tagged VM value: one word of kind plus unboxed payloads for
// every scalar the hot paths touch. KSet holds a pid bitset (the working
// state of the wakeup algorithms); KAny carries an arbitrary shared-memory
// value read from a register whose content no unboxed kind covers (e.g. a
// slice installed by a memory initializer).
type Value struct {
	Kind Kind
	I    int64
	S    string
	Set  shmem.PidBits
	Any  shmem.Value
}

// Convenience constructors.
func Nil() Value                { return Value{} }
func Int(v int) Value           { return Value{Kind: KInt, I: int64(v)} }
func I64(v int64) Value         { return Value{Kind: KI64, I: v} }
func Bool(v bool) Value         { return Value{Kind: KBool, I: b2i(v)} }
func Str(s string) Value        { return Value{Kind: KStr, S: s} }
func Set(s shmem.PidBits) Value { return Value{Kind: KSet, Set: s} }

func b2i(v bool) int64 {
	if v {
		return 1
	}
	return 0
}

// Box converts a VM value to the interface form shared memory stores. The
// conversion restores the exact dynamic type the interpreter would have
// used, so register contents — and therefore history digests and golden
// traces — are bit-identical across engines. Boxing a KSet panics: sets
// are VM working state and must be encoded (pids.encode) before they touch
// a register.
func (v Value) Box() shmem.Value {
	switch v.Kind {
	case KNil:
		return nil
	case KInt:
		return int(v.I)
	case KI64:
		return v.I
	case KBool:
		return v.I != 0
	case KStr:
		return v.S
	case KAny:
		return v.Any
	default:
		panic(fmt.Sprintf("vmachine: cannot box %v value into shared memory", v.Kind))
	}
}

// Unbox converts a shared-memory value to tagged form. Scalars unbox to
// their dedicated kinds; anything else is carried opaquely as KAny (and
// boxes back to the identical interface value).
func Unbox(v shmem.Value) Value {
	switch x := v.(type) {
	case nil:
		return Value{}
	case int:
		return Value{Kind: KInt, I: int64(x)}
	case int64:
		return Value{Kind: KI64, I: x}
	case bool:
		return Value{Kind: KBool, I: b2i(x)}
	case string:
		return Value{Kind: KStr, S: x}
	default:
		return Value{Kind: KAny, Any: v}
	}
}

// AsInt returns the value as a Go int (register indices, set members).
// It accepts KInt, KI64 and KBool.
func (v Value) AsInt() int {
	switch v.Kind {
	case KInt, KI64, KBool:
		return int(v.I)
	default:
		panic(fmt.Sprintf("vmachine: %v value used as integer", v.Kind))
	}
}

// Truthy returns the boolean reading of a KBool (or integer) value.
func (v Value) Truthy() bool {
	switch v.Kind {
	case KBool, KInt, KI64:
		return v.I != 0
	default:
		panic(fmt.Sprintf("vmachine: %v value used as condition", v.Kind))
	}
}

// Equal reports equality as the interpreter's structural comparison would:
// identical kinds and payloads, with KAny falling back to shmem.ValuesEqual.
func (v Value) Equal(o Value) bool {
	if v.Kind == KAny || o.Kind == KAny {
		return shmem.ValuesEqual(v.Box(), o.Box())
	}
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case KNil:
		return true
	case KStr:
		return v.S == o.S
	case KSet:
		panic("vmachine: sets are not comparable")
	default:
		return v.I == o.I
	}
}

// String renders the value for disassembly and test failure messages.
func (v Value) String() string {
	switch v.Kind {
	case KNil:
		return "nil"
	case KInt:
		return fmt.Sprintf("int(%d)", v.I)
	case KI64:
		return fmt.Sprintf("int64(%d)", v.I)
	case KBool:
		return fmt.Sprintf("bool(%t)", v.I != 0)
	case KStr:
		return fmt.Sprintf("%q", v.S)
	case KSet:
		return fmt.Sprintf("set%v", v.Set.Sorted())
	case KAny:
		return fmt.Sprintf("any(%v)", v.Any)
	default:
		return fmt.Sprintf("Kind(%d)", v.Kind)
	}
}

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KNil:
		return "nil"
	case KInt:
		return "int"
	case KI64:
		return "int64"
	case KBool:
		return "bool"
	case KStr:
		return "string"
	case KSet:
		return "set"
	case KAny:
		return "any"
	default:
		return fmt.Sprintf("Kind(%d)", k)
	}
}
