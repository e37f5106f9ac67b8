package lowerbound

import (
	"fmt"
	"sort"
	"strings"

	"jayanti98/internal/objtype"
)

// SweepType pairs an object-type factory with the operation each process
// performs in a construction sweep — the workload vocabulary of the job
// service's sweep kind (internal/jobs) and its distributed shards
// (internal/dist), so a local and a sharded sweep job mean exactly the
// same thing.
type SweepType struct {
	// Name is the registry key (e.g. "fetch&increment").
	Name string
	// New builds the sequential type for an n-process sweep.
	New func(n int) objtype.Type
	// Op is the operation process pid performs.
	Op func(n, pid int) objtype.Op
}

var sweepTypes = map[string]SweepType{
	"fetch&increment": {
		Name: "fetch&increment",
		New:  func(n int) objtype.Type { return objtype.NewFetchIncrement(64) },
		Op:   FetchIncOp,
	},
	"queue": {
		Name: "queue",
		New:  func(n int) objtype.Type { return objtype.NewWakeupQueue() },
		Op:   func(n, pid int) objtype.Op { return objtype.Op{Name: objtype.OpDequeue} },
	},
	"stack": {
		Name: "stack",
		New:  func(n int) objtype.Type { return objtype.NewWakeupStack() },
		Op:   func(n, pid int) objtype.Op { return objtype.Op{Name: objtype.OpPop} },
	},
}

// SweepTypes lists the registered sweep workload names, sorted.
func SweepTypes() []string {
	names := make([]string, 0, len(sweepTypes))
	for name := range sweepTypes {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// SweepTypeFor resolves a sweep workload by name.
func SweepTypeFor(name string) (SweepType, error) {
	st, ok := sweepTypes[name]
	if !ok {
		return SweepType{}, fmt.Errorf("lowerbound: unknown sweep type %q (want %s)",
			name, strings.Join(SweepTypes(), ", "))
	}
	return st, nil
}
