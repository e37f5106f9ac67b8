package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"jayanti98/internal/algos/bwllsc"
	"jayanti98/internal/campaign"
	"jayanti98/internal/core"
	"jayanti98/internal/dist"
	"jayanti98/internal/explore"
	"jayanti98/internal/jobs"
	"jayanti98/internal/llsc"
	"jayanti98/internal/lowerbound"
	"jayanti98/internal/machine"
	"jayanti98/internal/sched"
	"jayanti98/internal/shmem"
	"jayanti98/internal/vmachine"
	"jayanti98/internal/wakeup"
)

// layerMetrics lists the per-layer metrics of the traced run, with units,
// in BENCHMARK.json order. README.md gives, for each, the end-to-end
// metric and workload it should move.
var layerMetrics = []struct{ name, unit string }{
	{"shmem.op_ns", "ns"},
	{"shmem.ops", "count"},
	{"machine.step_ns", "ns"},
	{"core.self_ns_per_step", "ns"},
	{"core.overhead_x", "ratio"},
	{"core.rounds", "count"},
	{"core.allocs_per_step", "count"},
	{"core.check_ms", "ms"},
	{"lowerbound.self_ms", "ms"},
	{"wakeup.codec_ns", "ns"},
	{"explore.states", "count"},
	{"explore.runs", "count"},
	{"explore.states_per_run", "ratio"},
	{"explore.prefix_us", "us"},
	{"llsc.fingerprint_ns", "ns"},
	{"llsc.op_ns", "ns"},
	{"bwllsc.op_ns", "ns"},
	{"vmachine.snapshot_ns", "ns"},
	{"campaign.round_ms", "ms"},
	{"campaign.apply_ms", "ms"},
	{"campaign.new_digest_ratio", "ratio"},
	{"campaign.execs_per_s", "1/s"},
	{"jobs.execute_ms", "ms"},
	{"jobs.overhead_ms", "ms"},
	{"jobs.queue_ms", "ms"},
	{"jobs.run_ms", "ms"},
	{"jobs.journal_writes_per_job", "count"},
	{"jobs.journal_write_us", "us"},
	{"jobs.cache_put_us", "us"},
	{"jobs.cache_get_us", "us"},
	{"jobs.cache_disk_get_us", "us"},
	{"jobs.cache_hit_ratio", "ratio"},
	{"jobs.cache_disk_share", "ratio"},
	{"jobs.served_from_table_ratio", "ratio"},
	{"service.job_done_ms_p50", "ms"},
	{"service.cache_hit_ms_p50", "ms"},
	{"service.cache_hit_ms_tail", "ms"},
	{"obs.http_server_ms.post_jobs", "ms"},
	{"obs.http_server_ms.get_job", "ms"},
	{"obs.http_server_ms.lease", "ms"},
	{"tenant.requests", "count"},
	{"dist.shard_ms", "ms"},
	{"dist.lease_wait_ms", "ms"},
	{"dist.execute_shard_ms", "ms"},
	{"dist.merge_ms", "ms"},
	{"dist.shards_per_job", "count"},
	{"dist.released", "count"},
	{"dist.fallback_ratio", "ratio"},
	{"fleet.shard_job_done_ms_p50", "ms"},
	{"trace.overhead_frac", "ratio"},
}

// Probe sizes of the layer sweep: the adversary battery's middle process
// count for the model layers, and a few seconds of each service workload.
const (
	probeN        = 128
	probeService  = 4 * time.Second
	probeFleet    = 4 * time.Second
	probeCampaign = 100
)

// perOp times f, called reps times per sample over five samples, and
// returns the median nanoseconds per call.
func perOp(reps int, f func()) float64 {
	var samples []float64
	for range 5 {
		t0 := time.Now()
		for range reps {
			f()
		}
		samples = append(samples, float64(time.Since(t0).Nanoseconds())/float64(reps))
	}
	return median(samples)
}

// recordingMemory passes every operation to a shmem.Memory and keeps the
// operation mix for replay.
type recordingMemory struct {
	mem *shmem.Memory
	ops []recordedOp
}

type recordedOp struct {
	pid int
	op  shmem.Op
}

func (r *recordingMemory) Apply(pid int, op shmem.Op) shmem.Response {
	r.ops = append(r.ops, recordedOp{pid, op})
	return r.mem.Apply(pid, op)
}

// sweepLayers times direct calls into every layer and runs short service
// and fleet probes against fresh binaries, on the seed's inputs. The same
// sweep runs on every workload, so each per-layer metric is measured on
// every traced run.
func sweepLayers(cfg runConfig) (map[string]metric, tally, error) {
	layers := map[string]metric{}
	var t tally

	// Service and fleet probes first: they also yield a real journal
	// record whose size the journal-write probe reuses.
	probe := cfg
	probe.duration = probeService
	svc, err := runService(probe, nil)
	if err != nil {
		return nil, t, fmt.Errorf("service probe: %w", err)
	}
	t.merge(svc.tally)
	for k, v := range svc.layers {
		layers[k] = v
	}
	probe.duration = probeFleet
	fleet, err := runFleet(probe, nil)
	if err != nil {
		return nil, t, fmt.Errorf("fleet probe: %w", err)
	}
	t.merge(fleet.tally)
	for k, v := range fleet.layers {
		layers[k] = v
	}
	layers["fleet.shard_job_done_ms_p50"] = metric{fleet.op.median(), "ms"}

	modelLayers(cfg.seed, layers, &t)
	if err := jobsLayers(cfg, svc.journalRecord, layers, &t); err != nil {
		return nil, t, err
	}
	distLayers(cfg.seed, layers, &t)
	return layers, t, nil
}

// modelLayers probes shmem, machine, core, lowerbound, wakeup, explore,
// llsc, bwllsc, vmachine and campaign in-process.
func modelLayers(seed int64, layers map[string]metric, t *tally) {
	const budget = 1 << 24

	// shmem: replay the battery's operation mix (set-register, counting
	// network, randomized double-register at probeN, round-robin) into a
	// fresh register file.
	var mix []recordedOp
	for _, alg := range []machine.Algorithm{wakeup.SetRegister(), wakeup.CountingNetwork(probeN), wakeup.DoubleRegister()} {
		rec := &recordingMemory{mem: shmem.New()}
		_, err := sched.Execute(alg, probeN, rec, &sched.RoundRobin{}, lowerbound.HashTosses(tossSeed(seed)), budget)
		t.record(err)
		mix = append(mix, rec.ops...)
	}
	layers["shmem.ops"] = metric{float64(len(mix)), "count"}
	opNS := perOp(1, func() {
		m := shmem.New()
		for _, o := range mix {
			m.Apply(o.pid, o.op)
		}
	}) / float64(len(mix))
	layers["shmem.op_ns"] = metric{opNS, "ns"}

	// machine: round-robin sched.Execute per step, minus the register op.
	alg := wakeup.SetRegister()
	var execSteps int
	execNS := perOp(1, func() {
		res, err := sched.Execute(alg, probeN, shmem.New(), &sched.RoundRobin{}, machine.ZeroTosses, budget)
		if err != nil {
			t.record(err)
			return
		}
		execSteps = res.TotalSteps
	})
	execPerStep := execNS / float64(max(execSteps, 1))
	layers["machine.step_ns"] = metric{execPerStep - opNS, "ns"}

	// core: the adversary's RunAll on the same algorithm and n.
	var run *core.AllRun
	var allocs uint64
	runNS := perOp(1, func() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, err := core.RunAll(alg, probeN, machine.ZeroTosses, core.Config{NoHistory: true})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.record(err)
			return
		}
		run, allocs = r, after.Mallocs-before.Mallocs
	})
	if run == nil {
		return
	}
	var steps int
	for _, s := range run.Steps {
		steps += s
	}
	runPerStep := runNS / float64(max(steps, 1))
	layers["core.self_ns_per_step"] = metric{runPerStep - execPerStep, "ns"}
	layers["core.overhead_x"] = metric{runPerStep / execPerStep, "ratio"}
	layers["core.rounds"] = metric{float64(len(run.Rounds)), "count"}
	layers["core.allocs_per_step"] = metric{float64(allocs) / float64(max(steps, 1)), "count"}

	checkNS := perOp(1, func() {
		t.record(core.CheckWakeupRun(run))
		t.record(core.CheckLemma51(run))
		t.record(core.VerifyTheorem61(run))
	})
	layers["core.check_ms"] = metric{checkNS / 1e6, "ms"}
	measureNS := perOp(1, func() {
		res, err := lowerbound.MeasureWakeup(alg, probeN, machine.ZeroTosses)
		if err == nil && !res.OK() {
			err = fmt.Errorf("set-register n=%d: checks failed", probeN)
		}
		t.record(err)
	})
	layers["lowerbound.self_ms"] = metric{(measureNS - runNS - checkNS) / 1e6, "ms"}

	// wakeup: the pid-set codec on sets of the sizes the battery builds.
	var sets []shmem.PidBits
	for _, n := range adversaryNs {
		for _, size := range []int{1, n / 4, n / 2, n} {
			var b shmem.PidBits
			for pid := range size {
				b.Add(pid)
			}
			sets = append(sets, b)
		}
	}
	var dst shmem.PidBits
	codecNS := perOp(200, func() {
		for _, b := range sets {
			dst = wakeup.DecodeBits(wakeup.EncodeBits(b), dst[:0])
		}
	}) / float64(len(sets))
	layers["wakeup.codec_ns"] = metric{codecNS, "ns"}

	// explore: one space's counters, and prefix re-execution on prefixes
	// drawn from the seed.
	sp := exploreSpaces[1]
	rep, err := exhaustive(nil, 0, sp)
	t.record(err)
	if rep != nil {
		layers["explore.states"] = metric{float64(rep.States), "count"}
		layers["explore.runs"] = metric{float64(rep.Runs), "count"}
		layers["explore.states_per_run"] = metric{float64(rep.States) / float64(rep.Runs), "ratio"}
	}
	deep := exploreSpaces[3].cfg
	rng := rand.New(rand.NewSource(derive(seed, streamPrefixes)))
	var prefixes [][]int
	for range 32 {
		p := make([]int, 4+rng.Intn(60))
		for i := range p {
			p[i] = rng.Intn(deep.N)
		}
		prefixes = append(prefixes, p)
	}
	prefixNS := perOp(4, func() {
		for _, p := range prefixes {
			rec, err := explore.RunSchedule(deep, p)
			if err == nil && rec.Failure != nil {
				err = fmt.Errorf("prefix run failed: %v", rec.Failure)
			}
			if err != nil {
				t.record(err)
			}
		}
	}) / float64(len(prefixes))
	layers["explore.prefix_us"] = metric{prefixNS / 1e3, "us"}

	// llsc, bwllsc, vmachine.
	fp := llsc.New(4)
	for pid := range 4 {
		h := fp.Handle(pid)
		for reg := range 8 {
			h.LL(reg)
			if reg%2 == 0 {
				h.SC(reg, pid*100+reg)
			}
		}
	}
	var buf []byte
	layers["llsc.fingerprint_ns"] = metric{perOp(20000, func() { buf = fp.AppendFingerprint(buf[:0]) }), "ns"}
	nat, bw := llsc.New(1), bwllsc.New(1)
	i := 0
	layers["llsc.op_ns"] = metric{perOp(100000, func() {
		nat.Apply(0, shmem.Op{Kind: shmem.OpLL, Reg: 0})
		nat.Apply(0, shmem.Op{Kind: shmem.OpSC, Reg: 0, Arg: i})
		i++
	}) / 2, "ns"}
	layers["bwllsc.op_ns"] = metric{perOp(100000, func() {
		bw.Apply(0, shmem.Op{Kind: shmem.OpLL, Reg: 0})
		bw.Apply(0, shmem.Op{Kind: shmem.OpSC, Reg: 0, Arg: i})
		i++
	}) / 2, "ns"}
	if c, ok := alg.(machine.Compiled); ok {
		x := vmachine.NewExec(c.Chunk(), 0, probeN)
		x.Start()
		layers["vmachine.snapshot_ns"] = metric{perOp(20000, func() { x.Snapshot() }), "ns"}
	} else {
		t.record(fmt.Errorf("set-register has no compiled chunk"))
	}

	// campaign: rounds of a fresh campaign.
	st := newCampaign(seed)
	var roundMS, applyMS, newDigests float64
	t0 := time.Now()
	for range probeCampaign {
		r0 := time.Now()
		rr, err := campaign.ExecuteRound(context.Background(), st.NextRound(), 1)
		roundMS += ms(time.Since(r0))
		if err != nil {
			t.record(err)
			continue
		}
		a0 := time.Now()
		delta, err := st.ApplyRound(rr)
		applyMS += ms(time.Since(a0))
		if err == nil && len(delta.Failures) > 0 {
			err = fmt.Errorf("campaign: failing inputs on a correct construction")
		}
		t.record(err)
		newDigests += float64(delta.NewDigests)
	}
	execs := float64(probeCampaign * st.Spec.BatchSize)
	layers["campaign.round_ms"] = metric{roundMS / probeCampaign, "ms"}
	layers["campaign.apply_ms"] = metric{applyMS / probeCampaign, "ms"}
	layers["campaign.new_digest_ratio"] = metric{newDigests / execs, "ratio"}
	layers["campaign.execs_per_s"] = metric{execs / time.Since(t0).Seconds(), "1/s"}
}

// jobsLayers times jobs.Execute and the result cache directly, on the
// service workload's first fresh specs, and journal writes of record.
func jobsLayers(cfg runConfig, record []byte, layers map[string]metric, t *tally) error {
	in := newServiceInputs(cfg.seed)
	var specs []jobs.Spec
	for range 16 {
		specs = append(specs, in.clients[0].fuzzSpec(10))
	}
	var results [][]byte
	var execMS []float64
	for i := range specs {
		if _, err := specID(&specs[i]); err != nil {
			return err
		}
		t0 := time.Now()
		out, err := jobs.Execute(context.Background(), &specs[i], jobs.NewProgress(), 1)
		execMS = append(execMS, ms(time.Since(t0)))
		t.record(err)
		results = append(results, out)
	}
	layers["jobs.execute_ms"] = metric{median(execMS), "ms"}
	if done, ok := layers["service.job_done_ms_p50"]; ok {
		layers["jobs.overhead_ms"] = metric{done.Value - median(execMS), "ms"}
	}

	dir, err := runDir(cfg, "cache-probe")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cache, err := jobs.NewCache(len(results), dir)
	if err != nil {
		return err
	}
	ids := make([]string, len(results))
	for i := range results {
		sum := sha256.Sum256([]byte(fmt.Sprintf("perfbench-probe-%d", i)))
		ids[i] = hex.EncodeToString(sum[:])
	}
	var putNS float64
	for i, r := range results {
		t0 := time.Now()
		t.record(cache.Put(ids[i], r))
		putNS += float64(time.Since(t0).Nanoseconds())
	}
	layers["jobs.cache_put_us"] = metric{putNS / float64(len(results)) / 1e3, "us"}
	getNS := perOp(1000, func() {
		if _, ok := cache.Get(ids[0]); !ok {
			t.record(fmt.Errorf("cache lost an entry"))
		}
	})
	layers["jobs.cache_get_us"] = metric{getNS / 1e3, "us"}
	cold, err := jobs.NewCache(len(results), dir)
	if err != nil {
		return err
	}
	var diskNS float64
	for i, r := range results {
		t0 := time.Now()
		got, ok := cold.Get(ids[i])
		diskNS += float64(time.Since(t0).Nanoseconds())
		if !ok || !bytes.Equal(got, r) {
			t.record(fmt.Errorf("disk cache returned a different result"))
		}
	}
	layers["jobs.cache_disk_get_us"] = metric{diskNS / float64(len(results)) / 1e3, "us"}

	// A journal record the service probe wrote, rewritten under new IDs.
	if record == nil {
		return fmt.Errorf("the service probe left no journal record")
	}
	var journalNS float64
	for i := range ids {
		t0 := time.Now()
		t.record(cache.PutJobRecord(ids[i], record))
		journalNS += float64(time.Since(t0).Nanoseconds())
	}
	layers["jobs.journal_write_us"] = metric{journalNS / float64(len(ids)) / 1e3, "us"}
	return nil
}

// distLayers shards one fleet job by hand: ExecuteShard on each range and
// Merge, checked against jobs.Execute.
func distLayers(seed int64, layers map[string]metric, t *tally) {
	spec := newFleetStream(seed).fuzzSpec(fleetSamples)
	if _, err := specID(&spec); err != nil {
		t.record(err)
		return
	}
	n, _ := dist.Coords(&spec)
	ranges := dist.Partition(n, serverShards)
	var payloads [][]byte
	var shardMS float64
	for _, r := range ranges {
		t0 := time.Now()
		p, err := dist.ExecuteShard(context.Background(), &spec, r, 1)
		shardMS += ms(time.Since(t0))
		t.record(err)
		payloads = append(payloads, p)
	}
	t0 := time.Now()
	merged, err := dist.Merge(&spec, ranges, payloads)
	mergeMS := ms(time.Since(t0))
	if err == nil {
		var got, want []byte
		if got, err = compact(merged); err == nil {
			if want, err = execute(&spec); err == nil && !bytes.Equal(got, want) {
				err = fmt.Errorf("merged shards differ from jobs.Execute")
			}
		}
	}
	t.record(err)
	perShard := shardMS / float64(len(ranges))
	layers["dist.execute_shard_ms"] = metric{perShard, "ms"}
	layers["dist.merge_ms"] = metric{mergeMS, "ms"}
	if done, ok := layers["fleet.shard_job_done_ms_p50"]; ok {
		wait := (done.Value - shardMS - mergeMS) / float64(len(ranges))
		layers["dist.lease_wait_ms"] = metric{wait, "ms"}
	}
}
