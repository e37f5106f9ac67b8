package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"jayanti98/internal/jobs"
)

// Server and worker flags. BENCHMARK.json and README.md record them.
var (
	serverFlags = []string{"-workers", "2", "-parallel", "1", "-log-level", "error"}
	workerFlags = []string{"-parallel", "1", "-log-level", "error"}
)

// tenants are the two tenants of the service workload, with unlimited
// request rate.
var tenants = []struct{ name, key string }{{"alpha", "k-alpha"}, {"beta", "k-beta"}}

// stack is a running lbserver, optionally with one lbworker.
type stack struct {
	server, worker *proc
	base           string
	dir            string
	client         *http.Client
}

// stop ends both processes and removes the stack's directory.
func (s *stack) stop() {
	s.worker.stop()
	s.server.stop()
	if err := os.RemoveAll(s.dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: removing", s.dir+":", err)
	}
}

// startStack starts lbserver over cacheDir with extra flags, and an
// lbworker when withWorker is set, and returns once the server answers
// /healthz and (with a worker) the coordinator counts the worker active.
func startStack(cfg runConfig, dir string, extra []string, withWorker bool) (*stack, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	s := &stack{
		base: "http://" + addr,
		dir:  dir,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 8,
			DisableCompression:  true,
		}},
	}
	args := append([]string{"-addr", addr, "-cache-dir", filepath.Join(dir, "cache")}, serverFlags...)
	args = append(args, extra...)
	s.server, err = startProc(filepath.Join(cfg.bin, "lbserver"), args, filepath.Join(dir, "lbserver.log"))
	if err != nil {
		return nil, err
	}
	if err := waitFor(20*time.Second, s.server, func() bool { return healthy(s.client, s.base) }); err != nil {
		err = fmt.Errorf("lbserver: %w; log: %s", err, logTail(filepath.Join(dir, "lbserver.log")))
		s.stop()
		return nil, err
	}
	if !withWorker {
		return s, nil
	}
	wargs := append([]string{"-server", s.base, "-id", "bench-worker"}, workerFlags...)
	s.worker, err = startProc(filepath.Join(cfg.bin, "lbworker"), wargs, filepath.Join(dir, "lbworker.log"))
	if err != nil {
		s.stop()
		return nil, err
	}
	active := func() bool {
		ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
		defer cancel()
		snap, err := scrape(ctx, s.client, s.base)
		return err == nil && snap.sum("dist_workers_active") >= 1
	}
	if err := waitFor(20*time.Second, s.worker, active); err != nil {
		err = fmt.Errorf("lbworker: %w; log: %s", err, logTail(filepath.Join(dir, "lbworker.log")))
		s.stop()
		return nil, err
	}
	return s, nil
}

// apiClient is one closed-loop client: a tenant key (empty: open mode).
type apiClient struct {
	s   *stack
	key string
}

func (c apiClient) do(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.s.base+path, rd)
	if err != nil {
		return nil, err
	}
	if c.key != "" {
		req.Header.Set("Authorization", "Bearer "+c.key)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return c.s.client.Do(req)
}

// submit POSTs spec and decodes the job view.
func (c apiClient) submit(ctx context.Context, spec *jobs.Spec) (int, jobs.JobView, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return 0, jobs.JobView{}, err
	}
	resp, err := c.do(ctx, http.MethodPost, "/v1/jobs", body)
	if err != nil {
		return 0, jobs.JobView{}, err
	}
	defer resp.Body.Close()
	var view jobs.JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		return resp.StatusCode, view, fmt.Errorf("decoding POST /v1/jobs answer (status %d): %w", resp.StatusCode, err)
	}
	return resp.StatusCode, view, nil
}

// awaitDone follows the job's SSE stream to its final status frame and
// returns that status.
func (c apiClient) awaitDone(ctx context.Context, id string) (string, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "status":
			var frame struct {
				Status string `json:"status"`
			}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &frame); err != nil {
				return "", fmt.Errorf("decoding status frame: %w", err)
			}
			return frame.Status, nil
		case line == "":
			event = ""
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("event stream ended without a status frame")
}

// finished is a fresh job as the client saw it end.
type finished struct {
	// done is POST to the final SSE status frame.
	done time.Duration
	// queued and ran come from the server's own job timestamps.
	queued, ran time.Duration
	result      []byte
}

// fetch reads a finished job's view and compacted payload.
func (c apiClient) fetch(ctx context.Context, id string) (jobs.JobView, []byte, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil)
	if err != nil {
		return jobs.JobView{}, nil, err
	}
	defer resp.Body.Close()
	var view jobs.JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		return view, nil, fmt.Errorf("decoding job view: %w", err)
	}
	if view.Status != jobs.StatusDone || view.Started == nil || view.Finished == nil {
		return view, nil, fmt.Errorf("job %s is %s", id[:12], view.Status)
	}
	res, err := compact(view.Result)
	return view, res, err
}

func compact(raw []byte) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return nil, fmt.Errorf("compacting result: %w", err)
	}
	return buf.Bytes(), nil
}

// runFresh submits a spec that has never been submitted, waits for its
// final SSE frame, and fetches the result, with a span per request under
// parent.
func (c apiClient) runFresh(ctx context.Context, tr *tracer, parent int, spec *jobs.Spec) (finished, error) {
	t0 := time.Now()
	sp := tr.start("http.POST /v1/jobs", parent)
	code, view, err := c.submit(ctx, spec)
	tr.end(sp)
	if err != nil {
		return finished{}, err
	}
	if code != http.StatusCreated {
		return finished{}, fmt.Errorf("fresh job answered %d, want 201", code)
	}
	sp = tr.start("http.GET /v1/jobs/{id}/events", parent)
	status, err := c.awaitDone(ctx, view.ID)
	tr.end(sp)
	f := finished{done: time.Since(t0)}
	if err != nil {
		return f, err
	}
	if status != string(jobs.StatusDone) {
		return f, fmt.Errorf("job %s ended %s", view.ID[:12], status)
	}
	sp = tr.start("http.GET /v1/jobs/{id}", parent)
	view, f.result, err = c.fetch(ctx, view.ID)
	tr.end(sp)
	if err == nil {
		f.queued, f.ran = view.Started.Sub(view.Created), view.Finished.Sub(*view.Started)
	}
	return f, err
}

// execute runs spec in-process, as the reference result.
func execute(spec *jobs.Spec) ([]byte, error) {
	out, err := jobs.Execute(context.Background(), spec, jobs.NewProgress(), 1)
	if err != nil {
		return nil, err
	}
	return compact(out)
}

// poolEntry is a finished spec with its first result.
type poolEntry struct {
	spec   jobs.Spec
	id     string
	result []byte
}

// servicePool runs the pool specs in-process and places their results in
// the cache directory the server will use, so the first resubmission of
// each is served from disk.
func servicePool(in serviceInputs, cacheDir string) ([]poolEntry, error) {
	cache, err := jobs.NewCache(servicePoolSize, cacheDir)
	if err != nil {
		return nil, err
	}
	var pool []poolEntry
	for _, spec := range in.pool {
		spec := spec
		id, err := specID(&spec)
		if err != nil {
			return nil, err
		}
		raw, err := jobs.Execute(context.Background(), &spec, jobs.NewProgress(), 1)
		if err != nil {
			return nil, err
		}
		if err := cache.Put(id, raw); err != nil {
			return nil, err
		}
		res, err := compact(raw)
		if err != nil {
			return nil, err
		}
		pool = append(pool, poolEntry{spec: spec, id: id, result: res})
	}
	return pool, nil
}

// setUp starts a stack setUpRepeats times, each in a fresh directory
// named after name, keeps the last, and returns it with the median set-up
// time.
func setUp(cfg runConfig, name string, start func(dir string) (*stack, error)) (*stack, float64, error) {
	var times []float64
	var s *stack
	for range setUpRepeats {
		if s != nil {
			s.stop()
		}
		dir, err := runDir(cfg, name)
		if err != nil {
			return nil, 0, err
		}
		t0 := time.Now()
		s, err = start(dir)
		if err != nil {
			os.RemoveAll(dir)
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	fmt.Fprintf(os.Stderr, "%s set-up times (s): %.4f\n", name, times)
	return s, median(times), nil
}

// runDir makes a fresh scratch directory under the work directory.
func runDir(cfg runConfig, name string) (string, error) {
	return os.MkdirTemp(cfg.work, name+"-")
}

// serviceLoad is what the service clients measured.
type serviceLoad struct {
	mu          sync.Mutex
	jobDone     latency
	queued, ran latency
	cacheHit    latency
	completed   int
	tally       tally
}

func (l *serviceLoad) fresh(f finished, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.tally.record(err)
	if err == nil {
		l.completed++
		l.jobDone.add(ms(f.done))
		l.queued.add(ms(f.queued))
		l.ran.add(ms(f.ran))
	}
}

func (l *serviceLoad) hit(d time.Duration, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.tally.record(err)
	if err == nil {
		l.completed++
		l.cacheHit.add(ms(d))
	}
}

// serviceClient is one tenant's closed loop: half fresh tiny jobs, each
// awaited on its event stream, half resubmissions of finished specs, each
// of which must answer 200 "cached":true with the first result's bytes.
func serviceClient(ctx context.Context, c apiClient, stream *specStream, pool []poolEntry, seed int64, tr *tracer, load *serviceLoad) {
	rng := rand.New(rand.NewSource(seed))
	pool = append([]poolEntry(nil), pool...)
	for ctx.Err() == nil {
		if rng.Intn(2) == 0 {
			spec := stream.fresh()
			id, err := specID(&spec)
			if err != nil {
				load.fresh(finished{}, err)
				continue
			}
			root := tr.start("service.fresh", 0)
			f, err := c.runFresh(ctx, tr, root, &spec)
			tr.end(root)
			if ctx.Err() != nil {
				return // the deadline cut this job; it is neither done nor failed
			}
			load.fresh(f, err)
			if err == nil {
				pool = append(pool, poolEntry{spec: spec, id: id, result: f.result})
			}
			continue
		}
		e := pool[rng.Intn(len(pool))]
		root := tr.start("service.cache_hit", 0)
		sp := tr.start("http.POST /v1/jobs", root)
		t0 := time.Now()
		code, view, err := c.submit(ctx, &e.spec)
		d := time.Since(t0)
		tr.end(sp)
		tr.end(root)
		if ctx.Err() != nil {
			return
		}
		if err == nil {
			err = checkHit(code, view, e)
		}
		load.hit(d, err)
	}
}

func checkHit(code int, view jobs.JobView, e poolEntry) error {
	if code != http.StatusOK || !view.Cached || view.Status != jobs.StatusDone || view.ID != e.id {
		return fmt.Errorf("resubmission of %s answered %d cached=%v status=%s", e.id[:12], code, view.Cached, view.Status)
	}
	res, err := compact(view.Result)
	if err != nil {
		return err
	}
	if !bytes.Equal(res, e.result) {
		return fmt.Errorf("cache hit for %s differs from the first result", e.id[:12])
	}
	return nil
}

// runService drives one lbserver (file cache, two tenants, two workers)
// with two closed-loop clients, one per tenant.
func runService(cfg runConfig, tr *tracer) (*result, error) {
	in := newServiceInputs(cfg.seed)
	var pool []poolEntry
	start := func(dir string) (*stack, error) {
		var err error
		if pool, err = servicePool(in, filepath.Join(dir, "cache")); err != nil {
			return nil, fmt.Errorf("seeding the result pool: %w", err)
		}
		tenantsPath := filepath.Join(dir, "tenants.json")
		if err := writeTenants(tenantsPath); err != nil {
			return nil, err
		}
		return startStack(cfg, dir, []string{"-tenants", tenantsPath, "-cache-entries", fmt.Sprint(serviceCacheEntries)}, false)
	}
	s, setupS, err := setUp(cfg, "service", start)
	if err != nil {
		return nil, err
	}
	defer s.stop()

	duration := cfg.duration
	if cfg.short {
		duration = time.Second
	}
	before, err := scrape(context.Background(), s.client, s.base)
	if err != nil {
		return nil, err
	}
	load := &serviceLoad{}
	ctx, cancel := context.WithTimeout(context.Background(), duration)
	defer cancel()
	t0 := time.Now()
	var wg sync.WaitGroup
	for i := range 2 {
		c := apiClient{s: s, key: tenants[in.tenantOf[i]].key}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			serviceClient(ctx, c, in.clients[i], pool, derive(cfg.seed, uint64(1000+i)), tr, load)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(t0).Seconds()
	after, err := scrape(context.Background(), s.client, s.base)
	if err != nil {
		return nil, err
	}
	rss, err := s.server.peakRSSMB()
	if err != nil {
		return nil, err
	}

	res := newResult()
	res.journalRecord = sampleJournalRecord(s.dir)
	res.setupS = setupS
	res.maxRSSMB = rss
	res.op = load.jobDone
	res.workPerS = float64(load.completed) / elapsed
	res.tally = load.tally
	serviceLayers(res.layers, after.delta(before), load)
	return res, nil
}

// serviceLayers records the per-layer readings of a service run from the
// /metrics deltas and the clients' own timings.
func serviceLayers(layers map[string]metric, d promSnapshot, load *serviceLoad) {
	submitted := d.sum("jobs_submitted_total")
	hits, disk, misses := d.sum("jobs_cache_hits_total"), d.sum("jobs_cache_disk_hits_total"), d.sum("jobs_cache_misses_total")
	layers["jobs.queue_ms"] = metric{load.queued.median(), "ms"}
	layers["jobs.run_ms"] = metric{load.ran.median(), "ms"}
	layers["jobs.journal_writes_per_job"] = metric{ratio(d.sum("store_journal_writes_total"), submitted), "count"}
	layers["jobs.cache_hit_ratio"] = metric{ratio(hits+disk, hits+disk+misses), "ratio"}
	layers["jobs.cache_disk_share"] = metric{ratio(disk, hits+disk), "ratio"}
	layers["jobs.served_from_table_ratio"] = metric{ratio(d.sum("jobs_cache_served_total")-hits-disk, d.sum("jobs_cache_served_total")), "ratio"}
	layers["obs.http_server_ms.post_jobs"] = metric{d.meanMS("http_request_duration_seconds", `route="POST /v1/jobs"`), "ms"}
	layers["obs.http_server_ms.get_job"] = metric{d.meanMS("http_request_duration_seconds", `route="GET /v1/jobs/{id}"`), "ms"}
	layers["tenant.requests"] = metric{d.sum("tenant_requests_total"), "count"}
	layers["service.job_done_ms_p50"] = metric{load.jobDone.median(), "ms"}
	layers["service.cache_hit_ms_p50"] = metric{load.cacheHit.median(), "ms"}
	tail, _ := load.cacheHit.tail()
	layers["service.cache_hit_ms_tail"] = metric{tail, "ms"}
}

// sampleJournalRecord returns one journal record the server wrote under
// dir, nil when there is none.
func sampleJournalRecord(dir string) []byte {
	matches, _ := filepath.Glob(filepath.Join(dir, "cache", "*.job.json"))
	for _, m := range matches {
		if data, err := os.ReadFile(m); err == nil {
			return data
		}
	}
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func writeTenants(path string) error {
	type entry struct {
		Name string `json:"name"`
		Key  string `json:"key"`
	}
	var cfg struct {
		Tenants []entry `json:"tenants"`
	}
	for _, t := range tenants {
		cfg.Tenants = append(cfg.Tenants, entry{t.name, t.key})
	}
	data, err := json.Marshal(cfg)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// runFleet drives one lbserver plus one lbworker with a single closed-loop
// client submitting fresh shardable fuzz jobs. Every sharded result is
// compared with jobs.Execute of the same spec after the timed window.
func runFleet(cfg runConfig, tr *tracer) (*result, error) {
	stream := newFleetStream(cfg.seed)
	warm := newSpecStream(cfg.seed, streamFleetWarm, nil)
	// Set-up ends when one shard job has gone through lease, execute,
	// upload and merge: start-up alone takes about 10 ms, too short to
	// time steadily on a shared machine.
	s, setupS, err := setUp(cfg, "fleet", func(dir string) (*stack, error) {
		s, err := startStack(cfg, dir, nil, true)
		if err != nil {
			return nil, err
		}
		spec := warm.fuzzSpec(fleetSamples)
		if _, err := specID(&spec); err == nil {
			_, err = apiClient{s: s}.runFresh(context.Background(), nil, 0, &spec)
		}
		if err != nil {
			s.stop()
			return nil, fmt.Errorf("fleet warm-up job: %w", err)
		}
		return s, nil
	})
	if err != nil {
		return nil, err
	}
	defer s.stop()

	duration := cfg.duration
	if cfg.short {
		duration = 2 * time.Second
	}
	before, err := scrape(context.Background(), s.client, s.base)
	if err != nil {
		return nil, err
	}
	res := newResult()
	type done struct {
		spec   jobs.Spec
		result []byte
	}
	var jobsDone []done
	c := apiClient{s: s}
	ctx, cancel := context.WithTimeout(context.Background(), duration)
	defer cancel()
	t0 := time.Now()
	for ctx.Err() == nil {
		spec := stream.fuzzSpec(fleetSamples)
		if _, err := specID(&spec); err != nil {
			res.tally.record(err)
			continue
		}
		root := tr.start("fleet.job", 0)
		f, err := c.runFresh(ctx, tr, root, &spec)
		tr.end(root)
		if ctx.Err() != nil {
			break
		}
		if err != nil {
			res.tally.record(err)
			continue
		}
		res.op.add(ms(f.done))
		jobsDone = append(jobsDone, done{spec, f.result})
	}
	elapsed := time.Since(t0).Seconds()
	after, err := scrape(context.Background(), s.client, s.base)
	if err != nil {
		return nil, err
	}
	if res.maxRSSMB, err = s.server.peakRSSMB(); err != nil {
		return nil, err
	}
	for _, f := range jobsDone {
		want, err := execute(&f.spec)
		if err == nil && !bytes.Equal(want, f.result) {
			err = fmt.Errorf("sharded result of fuzz seed %d differs from jobs.Execute", f.spec.Explore.Seed)
		}
		res.tally.record(err)
	}
	res.setupS = setupS
	res.workPerS = float64(len(jobsDone)) / elapsed
	fleetLayers(res.layers, after.delta(before))
	return res, nil
}

func fleetLayers(layers map[string]metric, d promSnapshot) {
	distributed := d.sum("dist_jobs_distributed_total")
	fallback := d.sum("dist_jobs_fallback_total")
	layers["dist.shard_ms"] = metric{d.meanMS("dist_shard_duration_seconds"), "ms"}
	layers["dist.shards_per_job"] = metric{ratio(d.sum("dist_shards_completed_total"), distributed), "count"}
	layers["dist.released"] = metric{d.sum("dist_shards_released_total"), "count"}
	layers["dist.fallback_ratio"] = metric{ratio(fallback, fallback+distributed), "ratio"}
	layers["obs.http_server_ms.lease"] = metric{d.meanMS("http_request_duration_seconds", `route="POST /v1/shards/lease"`), "ms"}
}
