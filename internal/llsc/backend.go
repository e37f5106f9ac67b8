package llsc

import (
	"fmt"
	"os"

	"jayanti98/internal/shmem"
)

// Backend is the concurrent shared-memory surface the step-driven harnesses
// (sched.Execute, package explore), the experiment suite and Handle need.
// The native *Memory of this package implements it; so does the
// Blelloch–Wei LL/SC-from-CAS construction (package algos/bwllsc), which
// package explore can be pointed at with Config.LLSC and the cmd/ tools
// with -llsc=native|bw — the same selection pattern as machine engines
// (LB_ENGINE / -engine). The two backends are held byte-identical —
// responses, step counts and AppendFingerprint renderings — by the
// differential harness in algos/bwllsc.
type Backend interface {
	// N returns the number of processes the memory was created for.
	N() int
	// Apply performs op on behalf of pid (sched.Memory). It must be safe
	// for concurrent use by distinct pids.
	Apply(pid int, op shmem.Op) shmem.Response
	// Steps returns pid's shared-access step count.
	Steps(pid int) int64
	// TotalSteps returns the total shared-access step count.
	TotalSteps() int64
	// AppendFingerprint appends the binary rendering of the memory state
	// in the format of shmem.Memory.AppendFingerprint, which every
	// backend must produce byte-for-byte.
	AppendFingerprint(dst []byte) []byte
	// ReadQuiesced returns register i's value without charging a step or
	// perturbing the fingerprint.
	ReadQuiesced(reg int) shmem.Value
}

var _ Backend = (*Memory)(nil)

// BackendKind names an LL/SC backend implementation.
type BackendKind int32

const (
	// BackendNative is the mutex-guarded shmem register file of this
	// package.
	BackendNative BackendKind = iota
	// BackendBW is the Blelloch–Wei LL/SC-from-CAS construction
	// (package algos/bwllsc).
	BackendBW
)

// String names the backend (the same spellings ParseBackend accepts).
func (k BackendKind) String() string {
	switch k {
	case BackendNative:
		return "native"
	case BackendBW:
		return "bw"
	default:
		return fmt.Sprintf("BackendKind(%d)", int32(k))
	}
}

// ParseBackend parses a backend name as used by the -llsc flag of the
// cmd/ tools and the LB_LLSC environment variable. The empty string is the
// process-wide default.
func ParseBackend(s string) (BackendKind, error) {
	switch s {
	case "":
		return DefaultBackend(), nil
	case "native":
		return BackendNative, nil
	case "bw", "blelloch-wei":
		return BackendBW, nil
	default:
		return BackendNative, fmt.Errorf("llsc: unknown backend %q (want native or bw)", s)
	}
}

// defaultBackend is the process-wide backend. It is written only by init,
// so later reads need no synchronization.
var defaultBackend BackendKind

func init() {
	if s := os.Getenv("LB_LLSC"); s != "" {
		k, err := ParseBackend(s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "llsc: ignoring LB_LLSC: %v\n", err)
			return
		}
		defaultBackend = k
	}
}

// DefaultBackend returns the process-wide default backend. It starts as
// BackendNative, overridable by the LB_LLSC environment variable
// (native, bw).
func DefaultBackend() BackendKind { return defaultBackend }
