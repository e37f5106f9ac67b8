package main

import (
	"fmt"
	"time"

	"jayanti98/internal/core"
	"jayanti98/internal/lowerbound"
	"jayanti98/internal/machine"
	"jayanti98/internal/objtype"
	"jayanti98/internal/obs"
	"jayanti98/internal/universal"
	"jayanti98/internal/wakeup"
)

// advItem is one entry of the adversary battery: a single adversary run
// that reports the shared-memory steps it forced and the outcome of every
// check on it.
type advItem struct {
	name string
	n    int
	run  func(tr *tracer, parent int) (steps int64, err error)
}

// Pinned paper-level counts (deterministic, so independent of the
// workload seed): the set-register winner takes 2n steps, the others are
// the adversary-forced counts the E1/E3/E7/E8/E11 tables report.
var (
	pinCounting  = map[int]int{64: 66, 128: 86, 256: 108}
	pinGroupUpd  = map[int]int{64: 51, 128: 59, 256: 67}
	pinHerlihy   = map[int]int{64: 70, 128: 134, 256: 262}
	pinReduction = map[int]int{64: 51, 128: 59, 256: 67}
	pinReadIncr  = map[int]int{64: 58, 128: 66, 256: 74}
)

// adversarySteps reads the process-wide counter of adversary-forced
// steps that lowerbound folds every completed run into.
func adversarySteps() int64 {
	return obs.Default().Counter("adversary_steps_total", "", nil).Value()
}

// measureWakeup runs one wakeup algorithm under the adversary and checks
// res.OK() plus, when want > 0, the winner's step count.
func measureWakeup(tr *tracer, parent int, alg machine.Algorithm, n int, ta machine.TossAssignment, want int) (int64, error) {
	var res lowerbound.WakeupResult
	var err error
	before := adversarySteps()
	tr.do("lowerbound.MeasureWakeup", parent, func(int) {
		res, err = lowerbound.MeasureWakeup(alg, n, ta)
	})
	steps := adversarySteps() - before
	switch {
	case err != nil:
		return steps, err
	case !res.OK():
		return steps, fmt.Errorf("%s n=%d: checks failed: spec=%v lemma51=%v thm61=%v", res.Algorithm, n, res.SpecErr, res.Lemma51Err, res.Theorem61Err)
	case want > 0 && res.WinnerSteps != want:
		return steps, fmt.Errorf("%s n=%d: winner steps %d, want %d", res.Algorithm, n, res.WinnerSteps, want)
	case res.WinnerSteps < res.Bound:
		return steps, fmt.Errorf("%s n=%d: winner steps %d below the log4 n bound %d", res.Algorithm, n, res.WinnerSteps, res.Bound)
	}
	return steps, nil
}

func measureConstruction(tr *tracer, parent int, mk func(n int) universal.Construction, n, want int) (int64, error) {
	var res lowerbound.ConstructionResult
	var err error
	before := adversarySteps()
	tr.do("lowerbound.MeasureConstruction", parent, func(int) {
		res, err = lowerbound.MeasureConstruction(mk, lowerbound.FetchIncOp, n)
	})
	steps := adversarySteps() - before
	if err == nil && res.MaxSteps != want {
		err = fmt.Errorf("%s n=%d: forced steps %d, want %d", res.Construction, n, res.MaxSteps, want)
	}
	return steps, err
}

// adversaryBattery lists the battery at the given process counts. Only the
// double-register wakeup is randomized; its tosses come from the seed.
func adversaryBattery(seed int64, ns []int) []advItem {
	ta := lowerbound.HashTosses(tossSeed(seed))
	var items []advItem
	for _, n := range ns {
		n := n
		items = append(items,
			advItem{"set-register", n, func(tr *tracer, p int) (int64, error) {
				return measureWakeup(tr, p, wakeup.SetRegister(), n, machine.ZeroTosses, 2*n)
			}},
			advItem{"double-register", n, func(tr *tracer, p int) (int64, error) {
				return measureWakeup(tr, p, wakeup.DoubleRegister(), n, ta, 0)
			}},
			advItem{"counting-network", n, func(tr *tracer, p int) (int64, error) {
				return measureWakeup(tr, p, wakeup.CountingNetwork(n), n, machine.ZeroTosses, pinCounting[n])
			}},
			advItem{"E7 group-update", n, func(tr *tracer, p int) (int64, error) {
				return measureConstruction(tr, p, func(n int) universal.Construction {
					return universal.NewGroupUpdate(objtype.NewFetchIncrement(64), n, 0)
				}, n, pinGroupUpd[n])
			}},
			advItem{"E8 herlihy", n, func(tr *tracer, p int) (int64, error) {
				return measureConstruction(tr, p, func(n int) universal.Construction {
					return universal.NewHerlihy(objtype.NewFetchIncrement(64), n, 0)
				}, n, pinHerlihy[n])
			}},
		)
		for _, spec := range wakeup.Reductions() {
			spec := spec
			want := pinReduction[n]
			if spec.OpsPerProcess == 2 {
				want = pinReadIncr[n]
			}
			items = append(items, advItem{"E3 " + spec.Name, n, func(tr *tracer, p int) (int64, error) {
				var alg machine.Algorithm
				var err error
				tr.do("lowerbound.BuildReduction", p, func(int) {
					alg, _, err = lowerbound.BuildReduction(spec, "group-update", n)
				})
				if err != nil {
					return 0, err
				}
				return measureWakeup(tr, p, alg, n, machine.ZeroTosses, want)
			}})
		}
		items = append(items, advItem{"E6 cheater", n, func(tr *tracer, p int) (int64, error) {
			var run *core.AllRun
			var err error
			tr.do("core.RunAll", p, func(int) {
				run, err = core.RunAll(wakeup.Cheater(), n, machine.ZeroTosses, core.Config{})
			})
			if err != nil {
				return 0, err
			}
			var steps int64
			for _, s := range run.Steps {
				steps += int64(s)
			}
			var catch *core.Catch
			tr.do("core.CatchFastWakeup", p, func(int) {
				catch, err = core.CatchFastWakeup(run)
			})
			if err == nil && catch == nil {
				err = fmt.Errorf("cheater n=%d: not caught", n)
			}
			return steps, err
		}})
	}
	return items
}

// runAdversary runs the battery in whole passes, starting passes until
// the run time is used. A single goroutine calls the model in a closed
// loop; nothing here touches explore, jobs or HTTP.
func runAdversary(cfg runConfig, tr *tracer) (*result, error) {
	ns := adversaryNs
	if cfg.short {
		ns = ns[:1]
	}
	battery := adversaryBattery(cfg.seed, ns)

	// Set-up: build the battery and warm every item once at the smallest
	// n (engine chunk compilation, lazy registries), setUpRepeats times.
	var setups []float64
	for range setUpRepeats {
		t0 := time.Now()
		for _, it := range adversaryBattery(cfg.seed, ns[:1]) {
			if _, err := it.run(nil, 0); err != nil {
				return nil, fmt.Errorf("warm-up %s n=%d: %w", it.name, it.n, err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	res := newResult()
	res.setupS = median(setups)
	var lat latency
	var passRates []float64
	// firstSteps pins each item's forced-step total on the first pass: the
	// runs are deterministic given the seed, so later passes must repeat it.
	firstSteps := make([]int64, len(battery))
	start := time.Now()
	for pass := 0; ; pass++ {
		passStart := time.Now()
		var steps int64
		for i, it := range battery {
			root := tr.start("adversary.run", 0)
			t0 := time.Now()
			s, err := it.run(tr, root)
			lat.add(ms(time.Since(t0)))
			tr.end(root)
			steps += s
			if pass == 0 {
				firstSteps[i] = s
			} else if err == nil && s != firstSteps[i] {
				err = fmt.Errorf("forced %d steps, %d on the first pass", s, firstSteps[i])
			}
			if err != nil {
				err = fmt.Errorf("%s n=%d: %w", it.name, it.n, err)
			}
			res.tally.record(err)
		}
		passTime := time.Since(passStart)
		passRates = append(passRates, float64(steps)/passTime.Seconds())
		if cfg.short || time.Since(start) >= cfg.duration {
			break
		}
	}
	res.op = lat
	// Every pass does the same work, so the median pass rate discounts a
	// pass that a neighbour on the machine slowed.
	res.workPerS = median(passRates)
	var err error
	if res.maxRSSMB, err = peakRSSMB("/proc/self/status"); err != nil {
		return nil, err
	}
	return res, nil
}
