//go:build go1.23

package machine

import (
	"fmt"
	"iter"

	"jayanti98/internal/shmem"
)

// goDriver is the goroutine engine: the algorithm body runs in direct style
// as a coroutine (iter.Pull). next resumes the body until its next yield
// point and returns the action it published; toss and resp store the
// scheduler's input in a field that the body reads once it is resumed.
// Control passes by a direct coroutine switch, never through the
// scheduler's run queue, so a step costs one switch in and one back and no
// channel, lock or wakeup. This is the reference implementation of the
// process model — the body is ordinary Go code, so it can express anything
// (closures over local state, universal constructions, helper types).
//
// The coroutine may be resumed from any goroutine, one at a time, so a
// machine started on one goroutine can be stepped by a sweep worker on
// another.
type goDriver struct {
	pull func() (Action, bool)
	stop func()
	// yield publishes an action from inside the body and reports whether
	// the machine is still wanted (false once close has run).
	yield  func(Action) bool
	tossIn int64
	respIn shmem.Response
}

// killedSentinel is the panic used to unwind the body of a closed machine.
type killedSentinel struct{}

func startGoDriver(alg Algorithm, id, n int) *goDriver {
	g := &goDriver{}
	env := &Env{id: id, n: n, m: g}
	g.pull, g.stop = iter.Pull(func(yield func(Action) bool) {
		g.yield = yield
		if final := runBody(alg, env); final.Kind != 0 {
			yield(final)
		}
	})
	return g
}

// runBody runs the body to completion and returns its final action:
// ActReturn, ActCrash for a panic, or the zero Action when the body was
// unwound by close.
func runBody(alg Algorithm, env *Env) (final Action) {
	defer func() {
		if r := recover(); r != nil {
			if _, killed := r.(killedSentinel); killed {
				final = Action{} // swallowed; no final action published
				return
			}
			final = Action{Kind: ActCrash, Ret: fmt.Sprintf("panic: %v", r)}
		}
	}()
	return Action{Kind: ActReturn, Ret: alg.Run(env)}
}

// yieldToss publishes a pending toss and suspends until its outcome is
// delivered.
func (g *goDriver) yieldToss() int64 {
	if !g.yield(Action{Kind: ActToss}) {
		panic(killedSentinel{})
	}
	return g.tossIn
}

// yieldOp publishes a pending shared-memory op and suspends until its
// response is delivered.
func (g *goDriver) yieldOp(op shmem.Op) shmem.Response {
	if !g.yield(Action{Kind: ActOp, Op: op}) {
		panic(killedSentinel{})
	}
	return g.respIn
}

func (g *goDriver) next() Action {
	a, ok := g.pull()
	if !ok {
		// Only a closed machine's body ends without a final action.
		return Action{Kind: ActCrash, Ret: "machine: next on a closed machine"}
	}
	return a
}

func (g *goDriver) toss(outcome int64) { g.tossIn = outcome }

func (g *goDriver) resp(r shmem.Response) { g.respIn = r }

// close stops the coroutine: a body suspended in yield sees false and
// unwinds through killedSentinel; a body never resumed never runs.
// Calling it again does nothing.
func (g *goDriver) close() { g.stop() }
