package machine

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"jayanti98/internal/shmem"
)

// drive runs a single machine to completion against mem, delivering tosses
// from ta, and returns its result.
func drive(t *testing.T, alg Algorithm, id, n int, mem *shmem.Memory, ta TossAssignment) shmem.Value {
	t.Helper()
	m := Start(alg, id, n)
	defer m.Close()
	for {
		switch a := m.Peek(); a.Kind {
		case ActToss:
			m.DeliverToss(ta(id, m.NumTosses()))
		case ActOp:
			m.DeliverOpResponse(mem.Apply(id, a.Op))
		case ActReturn:
			return a.Ret
		case ActCrash:
			t.Fatalf("machine crashed: %v", m.Crashed())
		}
	}
}

func TestSimpleAlgorithmRunsToCompletion(t *testing.T) {
	alg := New("write-read", func(e *Env) shmem.Value {
		e.Swap(0, e.ID()*100)
		return e.Read(0)
	})
	mem := shmem.New()
	got := drive(t, alg, 3, 4, mem, ZeroTosses)
	if got != 300 {
		t.Fatalf("return = %v, want 300", got)
	}
	if mem.Steps(3) != 2 {
		t.Fatalf("steps = %d, want 2", mem.Steps(3))
	}
}

func TestEnvHelpersMapToOps(t *testing.T) {
	alg := New("helpers", func(e *Env) shmem.Value {
		if v := e.LL(1); v != nil {
			return "bad-ll"
		}
		ok, prev := e.SC(1, "a")
		if !ok || prev != nil {
			return "bad-sc"
		}
		ok, cur := e.Validate(1)
		if ok { // SC cleared the link
			return "bad-validate-link"
		}
		if cur != "a" {
			return "bad-validate-val"
		}
		if old := e.Swap(1, "b"); old != "a" {
			return "bad-swap"
		}
		e.Move(1, 2)
		if v := e.Read(2); v != "b" {
			return "bad-move"
		}
		return "ok"
	})
	if got := drive(t, alg, 0, 1, shmem.New(), ZeroTosses); got != "ok" {
		t.Fatalf("helpers check failed: %v", got)
	}
}

func TestTossesAreDeliveredFromAssignment(t *testing.T) {
	alg := New("tosser", func(e *Env) shmem.Value {
		sum := int64(0)
		for i := 0; i < 5; i++ {
			sum += e.Toss()
		}
		return sum
	})
	ta := func(pid, j int) int64 { return int64(10*pid + j) }
	got := drive(t, New(alg.Name(), alg.Run), 2, 3, shmem.New(), ta)
	// tosses for pid 2: 20+21+22+23+24 = 110
	if got != int64(110) {
		t.Fatalf("toss sum = %v, want 110", got)
	}
}

func TestNumTossesAndSteps(t *testing.T) {
	alg := New("mixed", func(e *Env) shmem.Value {
		e.Toss()
		e.Read(0)
		e.Toss()
		e.Read(0)
		e.Read(0)
		return nil
	})
	m := Start(alg, 0, 1)
	defer m.Close()
	mem := shmem.New()
	for !m.Terminated() {
		switch a := m.Peek(); a.Kind {
		case ActToss:
			m.DeliverToss(0)
		case ActOp:
			m.DeliverOpResponse(mem.Apply(0, a.Op))
		case ActReturn:
		}
		if m.Peek().Kind == ActReturn {
			break
		}
	}
	if m.NumTosses() != 2 {
		t.Fatalf("NumTosses = %d, want 2", m.NumTosses())
	}
	if m.Steps() != 3 {
		t.Fatalf("Steps = %d, want 3", m.Steps())
	}
}

func TestHistoryKeyIdenticalForIdenticalInputs(t *testing.T) {
	alg := New("hist", func(e *Env) shmem.Value {
		x := e.Toss()
		e.Swap(0, x)
		return e.Read(0)
	})
	run := func() string {
		m := Start(alg, 1, 2)
		defer m.Close()
		mem := shmem.New()
		for {
			switch a := m.Peek(); a.Kind {
			case ActToss:
				m.DeliverToss(7)
			case ActOp:
				m.DeliverOpResponse(mem.Apply(1, a.Op))
			default:
				return m.HistoryKey()
			}
		}
	}
	k1, k2 := run(), run()
	if k1 != k2 {
		t.Fatalf("identical runs produced different history keys:\n%q\n%q", k1, k2)
	}
	if !strings.HasPrefix(k1, "ev4:") {
		t.Fatalf("history key should record 4 events (toss, swap, validate, return): %q", k1)
	}
}

func TestHistoryKeyDivergesOnDifferentTosses(t *testing.T) {
	alg := New("t", func(e *Env) shmem.Value { return e.Toss() })
	run := func(outcome int64) string {
		m := Start(alg, 0, 1)
		defer m.Close()
		if m.Peek().Kind == ActToss {
			m.DeliverToss(outcome)
		}
		m.Peek()
		return m.HistoryKey()
	}
	if run(7) == run(8) {
		t.Fatal("different toss outcomes must yield different history keys")
	}
}

func TestDisableHistory(t *testing.T) {
	alg := New("d", func(e *Env) shmem.Value { return e.Read(0) })
	m := Start(alg, 0, 1)
	defer m.Close()
	m.DisableHistory()
	m.Peek()
	m.DeliverOpResponse(shmem.Response{Val: 1})
	if m.HistoryKey() != "disabled" {
		t.Fatalf("HistoryKey = %q, want disabled", m.HistoryKey())
	}
}

func TestHistoryKeyDivergesOnDifferentResponses(t *testing.T) {
	alg := New("hist2", func(e *Env) shmem.Value { return e.Read(0) })
	run := func(val shmem.Value) string {
		m := Start(alg, 0, 1)
		defer m.Close()
		for m.Peek().Kind == ActOp {
			m.DeliverOpResponse(shmem.Response{OK: false, Val: val})
		}
		return m.HistoryKey()
	}
	if run(1) == run(2) {
		t.Fatal("different responses must yield different history keys")
	}
}

func TestPeekIsIdempotent(t *testing.T) {
	alg := New("peek", func(e *Env) shmem.Value { e.Read(9); return nil })
	m := Start(alg, 0, 1)
	defer m.Close()
	a1 := m.Peek()
	a2 := m.Peek()
	if a1 != a2 {
		t.Fatalf("Peek not idempotent: %v vs %v", a1, a2)
	}
	if a1.Kind != ActOp || a1.Op.Reg != 9 {
		t.Fatalf("unexpected action %v", a1)
	}
}

func TestPeekAfterReturnKeepsReturning(t *testing.T) {
	alg := New("ret", func(e *Env) shmem.Value { return 42 })
	m := Start(alg, 0, 1)
	defer m.Close()
	for i := 0; i < 3; i++ {
		a := m.Peek()
		if a.Kind != ActReturn || a.Ret != 42 {
			t.Fatalf("Peek #%d = %v, want return 42", i, a)
		}
	}
	if !m.Terminated() {
		t.Fatal("machine should be terminated")
	}
	if m.ReturnValue() != 42 {
		t.Fatalf("ReturnValue = %v", m.ReturnValue())
	}
}

func TestCrashIsReported(t *testing.T) {
	alg := New("boom", func(e *Env) shmem.Value { panic("kaboom") })
	m := Start(alg, 0, 1)
	defer m.Close()
	a := m.Peek()
	if a.Kind != ActCrash {
		t.Fatalf("expected crash action, got %v", a)
	}
	if m.Crashed() == nil || !strings.Contains(m.Crashed().Error(), "kaboom") {
		t.Fatalf("Crashed() = %v", m.Crashed())
	}
	if m.Terminated() {
		t.Fatal("crashed machine must not count as terminated")
	}
}

func TestCloseUnwindsBlockedMachine(t *testing.T) {
	alg := New("loop", func(e *Env) shmem.Value {
		for {
			e.Read(0)
		}
	})
	m := Start(alg, 0, 1)
	m.Peek()
	m.Close() // must not hang
	m.Close() // idempotent
}

func TestCloseBeforeFirstPeek(t *testing.T) {
	alg := New("fast", func(e *Env) shmem.Value { return nil })
	m := Start(alg, 0, 1)
	m.Close() // must not hang even if the goroutine already sent its action
}

// TestCloseAllReclaimsGoroutines closes many machines suspended mid-op and
// checks that every coroutine behind them is gone: a leak here would grow
// with every adversary run.
func TestCloseAllReclaimsGoroutines(t *testing.T) {
	alg := New("loop", func(e *Env) shmem.Value {
		for {
			e.Read(0)
		}
	})
	base := runtime.NumGoroutine()
	ms := StartAllEngine(alg, 64, EngineGoroutine)
	for _, m := range ms {
		m.Peek()
		m.DeliverOpResponse(shmem.Response{})
		if a := m.Peek(); a.Kind != ActOp {
			t.Fatalf("machine %d: action %v, want op", m.ID(), a)
		}
	}
	CloseAll(ms)
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines after CloseAll: %d, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMachineSteppedFromTwoGoroutines hands one machine back and forth
// between two goroutines, one step each, as sweep workers may: the run
// must be the one a single goroutine sees.
func TestMachineSteppedFromTwoGoroutines(t *testing.T) {
	alg := New("sum", func(e *Env) shmem.Value {
		sum := int64(0)
		for i := 0; i < 10; i++ {
			sum += e.Toss()
			e.Swap(0, sum)
		}
		return sum
	})
	ta := func(pid, j int) int64 { return int64(j + 1) }
	step := func(m *Machine, mem *shmem.Memory) bool {
		switch a := m.Peek(); a.Kind {
		case ActToss:
			m.DeliverToss(ta(0, m.NumTosses()))
		case ActOp:
			m.DeliverOpResponse(mem.Apply(0, a.Op))
		default:
			return false
		}
		return true
	}

	solo := StartEngine(alg, 0, 1, EngineGoroutine)
	defer solo.Close()
	soloMem := shmem.New()
	for step(solo, soloMem) {
	}

	m := StartEngine(alg, 0, 1, EngineGoroutine)
	defer m.Close()
	mem := shmem.New()
	turns := [2]chan bool{make(chan bool), make(chan bool)}
	done := make(chan struct{})
	for w := range turns {
		go func(w int) {
			for range turns[w] {
				more := step(m, mem)
				if !more {
					close(done)
					return
				}
				turns[1-w] <- true
			}
		}(w)
	}
	turns[0] <- true
	<-done

	if m.Crashed() != nil || m.ReturnValue() != solo.ReturnValue() {
		t.Fatalf("handed-off machine returned %v (crash %v), single goroutine %v", m.ReturnValue(), m.Crashed(), solo.ReturnValue())
	}
	if m.HistoryKey() != solo.HistoryKey() || m.Steps() != 10 || m.NumTosses() != 10 {
		t.Fatalf("handed-off machine: key %s steps %d tosses %d; single goroutine: key %s",
			m.HistoryKey(), m.Steps(), m.NumTosses(), solo.HistoryKey())
	}
}

func TestPanicAfterFirstOpIsCrash(t *testing.T) {
	alg := New("late-boom", func(e *Env) shmem.Value {
		e.Read(0)
		panic("late kaboom")
	})
	m := StartEngine(alg, 0, 1, EngineGoroutine)
	defer m.Close()
	if a := m.Peek(); a.Kind != ActOp {
		t.Fatalf("first action %v, want op", a)
	}
	m.DeliverOpResponse(shmem.Response{})
	if a := m.Peek(); a.Kind != ActCrash {
		t.Fatalf("action after the op = %v, want crash", a)
	}
	if m.Crashed() == nil || !strings.Contains(m.Crashed().Error(), "late kaboom") {
		t.Fatalf("Crashed() = %v", m.Crashed())
	}
	if m.Steps() != 1 {
		t.Fatalf("steps = %d, want 1", m.Steps())
	}
}

func TestStartAllAndCloseAll(t *testing.T) {
	alg := New("id", func(e *Env) shmem.Value { return e.ID() })
	ms := StartAll(alg, 4)
	defer CloseAll(ms)
	for i, m := range ms {
		if m.ID() != i {
			t.Fatalf("machine %d has ID %d", i, m.ID())
		}
		if a := m.Peek(); a.Kind != ActReturn || a.Ret != i {
			t.Fatalf("machine %d action %v", i, a)
		}
	}
}

func TestDeliverTossOnOpPanics(t *testing.T) {
	alg := New("op", func(e *Env) shmem.Value { e.Read(0); return nil })
	m := Start(alg, 0, 1)
	defer m.Close()
	m.Peek()
	defer func() {
		if recover() == nil {
			t.Fatal("DeliverToss on a pending op must panic")
		}
	}()
	m.DeliverToss(0)
}

func TestDeliverResponseOnTossPanics(t *testing.T) {
	alg := New("toss", func(e *Env) shmem.Value { e.Toss(); return nil })
	m := Start(alg, 0, 1)
	defer m.Close()
	m.Peek()
	defer func() {
		if recover() == nil {
			t.Fatal("DeliverOpResponse on a pending toss must panic")
		}
	}()
	m.DeliverOpResponse(shmem.Response{})
}

func TestActionKindString(t *testing.T) {
	want := map[ActionKind]string{
		ActToss: "toss", ActOp: "op", ActReturn: "return", ActCrash: "crash",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
}
