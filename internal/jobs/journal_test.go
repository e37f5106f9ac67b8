package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"jayanti98/internal/tenant"
)

// echoRunSpec is a deterministic fake executor: the result is a pure
// function of the spec, mirroring the real determinism contract the
// journal's replay-and-recompute path relies on.
func echoRunSpec(ctx context.Context, spec *Spec, p *Progress, parallel int) ([]byte, error) {
	seed := int64(0)
	if spec.Explore != nil {
		seed = spec.Explore.Seed
	}
	return []byte(fmt.Sprintf(`{"kind":%q,"seed":%d}`, spec.Kind, seed)), nil
}

func newDirScheduler(t *testing.T, dir string, opts Options) *Scheduler {
	t.Helper()
	cache, err := NewCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	opts.Cache = cache
	return newTestScheduler(t, opts)
}

// TestJournalTerminalJobSurvivesRestart: a finished job is tracked by a
// restarted scheduler without resubmission, served byte-identically from
// the result cache.
func TestJournalTerminalJobSurvivesRestart(t *testing.T) {
	swapRunSpec(t, echoRunSpec)
	dir := t.TempDir()
	spec := fuzzSpec(7)

	cache1, err := NewCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := NewScheduler(Options{Workers: 1, Cache: cache1})
	if err != nil {
		t.Fatal(err)
	}
	view, _, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	final, err := s1.Wait(ctx, view.ID)
	if err != nil || final.Status != StatusDone {
		t.Fatalf("first life: %+v, %v", final, err)
	}
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// The journal record is on disk alongside the result.
	if _, err := os.Stat(filepath.Join(dir, view.ID+".job.json")); err != nil {
		t.Fatalf("journal record missing: %v", err)
	}

	s2 := newDirScheduler(t, dir, Options{Workers: 1})
	// No resubmission: GET alone finds the job.
	revived, ok := s2.Get(view.ID)
	if !ok {
		t.Fatal("restarted scheduler does not track the journaled job")
	}
	if revived.Status != StatusDone || !revived.Cached {
		t.Fatalf("revived = status %s cached %v, want done/cached", revived.Status, revived.Cached)
	}
	if !bytes.Equal(revived.Result, final.Result) {
		t.Fatalf("replayed result differs:\n  was %s\n  now %s", final.Result, revived.Result)
	}
}

// TestJournalReplayReenqueuesEveryKind: queued and running records of
// every job kind — report, sweep, explore, and an in-flight campaign
// round — are re-enqueued at boot and run to completion.
func TestJournalReplayReenqueuesEveryKind(t *testing.T) {
	swapRunSpec(t, echoRunSpec)
	dir := t.TempDir()
	cache, err := NewCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}

	specs := []*Spec{
		{Kind: KindReport, Report: &ReportSpec{Quick: true, Experiments: []string{"E1"}}},
		{Kind: KindSweep, Sweep: &SweepSpec{Type: "queue", MaxN: 4}},
		fuzzSpec(11),
		campaignRoundSpec(), // the in-flight campaign round
	}
	statuses := []Status{StatusQueued, StatusRunning, StatusQueued, StatusRunning}
	created := time.Now().Add(-time.Minute)
	var ids []string
	for i, spec := range specs {
		id, err := spec.ID()
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		ids = append(ids, id)
		rec := JobRecord{
			ID:      id,
			Spec:    spec,
			Status:  statuses[i],
			Created: created.Add(time.Duration(i) * time.Second),
		}
		data, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := cache.PutJobRecord(id, data); err != nil {
			t.Fatal(err)
		}
	}

	// Replay must bypass tenant caps: work the previous life accepted is
	// never rejected, even by a registry that would cap new submissions
	// below the replayed backlog.
	reg, err := tenant.New(tenant.Config{
		Tenants:        []tenant.Tenant{{Name: tenant.DefaultName, Key: "kd", Limits: tenant.Limits{MaxQueued: 1}}},
		AllowAnonymous: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestScheduler(t, Options{Workers: 2, Cache: cache, Tenants: reg})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i, id := range ids {
		final, err := s.Wait(ctx, id)
		if err != nil || final.Status != StatusDone {
			t.Fatalf("replayed %s job %d ended %+v, %v", specs[i].Kind, i, final, err)
		}
		want, _ := echoRunSpec(ctx, specs[i], nil, 0)
		if !bytes.Equal(final.Result, want) {
			t.Fatalf("replayed %s result = %s, want %s", specs[i].Kind, final.Result, want)
		}
	}
}

// TestJournalTombstoneSurvivesRestart: DELETE /v1/jobs is durable — an
// explicitly canceled job stays canceled after a restart instead of being
// re-enqueued, whether it was queued or running when canceled.
func TestJournalTombstoneSurvivesRestart(t *testing.T) {
	runningStarted := make(chan struct{})
	var startedOnce sync.Once
	release := make(chan struct{})
	swapRunSpec(t, func(ctx context.Context, spec *Spec, p *Progress, parallel int) ([]byte, error) {
		// The queued job can reach the single worker before Cancel does.
		startedOnce.Do(func() { close(runningStarted) })
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, ctx.Err()
	})
	dir := t.TempDir()
	cache1, err := NewCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := NewScheduler(Options{Workers: 1, Cache: cache1})
	if err != nil {
		t.Fatal(err)
	}
	runningView, _, err := s1.Submit(fuzzSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	<-runningStarted
	queuedView, _, err := s1.Submit(fuzzSpec(2))
	if err != nil {
		t.Fatal(err)
	}

	// Cancel both: one mid-run, one while queued.
	if !s1.Cancel(runningView.ID) || !s1.Cancel(queuedView.ID) {
		t.Fatal("cancel failed")
	}
	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if final, err := s1.Wait(ctx, runningView.ID); err != nil || final.Status != StatusCanceled {
		t.Fatalf("running job after cancel: %+v, %v", final, err)
	}
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// The restarted scheduler would happily run these specs (the executor
	// below completes instantly) — but the tombstones must keep them
	// canceled.
	swapRunSpec(t, echoRunSpec)
	s2 := newDirScheduler(t, dir, Options{Workers: 1})
	for _, id := range []string{runningView.ID, queuedView.ID} {
		view, ok := s2.Get(id)
		if !ok {
			t.Fatalf("job %s not tracked after restart", id)
		}
		if view.Status != StatusCanceled {
			t.Fatalf("tombstoned job %s replayed as %s, want canceled", id, view.Status)
		}
	}
	// And they stay canceled: nothing runs them later.
	time.Sleep(20 * time.Millisecond)
	if view, _ := s2.Get(runningView.ID); view.Status != StatusCanceled {
		t.Fatalf("tombstoned job was resurrected as %s", view.Status)
	}
}

// TestJournalDrainCancelResumesAfterRestart: a job canceled only by
// graceful shutdown (not by the user) is journaled back as queued and
// completes in the next life.
func TestJournalDrainCancelResumesAfterRestart(t *testing.T) {
	started := make(chan struct{})
	var startedOnce sync.Once
	swapRunSpec(t, func(ctx context.Context, spec *Spec, p *Progress, parallel int) ([]byte, error) {
		startedOnce.Do(func() { close(started) })
		<-ctx.Done()
		return nil, ctx.Err()
	})
	dir := t.TempDir()
	cache1, err := NewCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := NewScheduler(Options{Workers: 1, Cache: cache1})
	if err != nil {
		t.Fatal(err)
	}
	view, _, err := s1.Submit(fuzzSpec(42))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	swapRunSpec(t, echoRunSpec)
	s2 := newDirScheduler(t, dir, Options{Workers: 1})
	final, err := s2.Wait(ctx, view.ID)
	if err != nil || final.Status != StatusDone {
		t.Fatalf("drained job did not resume: %+v, %v", final, err)
	}
	want, _ := echoRunSpec(ctx, fuzzSpec(42), nil, 0)
	if !bytes.Equal(final.Result, want) {
		t.Fatalf("resumed result = %s, want %s", final.Result, want)
	}
}

// TestJournalDoneRecordWithMissingResultRecomputes: a "done" record whose
// result bytes were wiped by hand is re-enqueued, and determinism yields
// the identical bytes again.
func TestJournalDoneRecordWithMissingResultRecomputes(t *testing.T) {
	swapRunSpec(t, echoRunSpec)
	dir := t.TempDir()
	cache, err := NewCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := fuzzSpec(5)
	id, err := spec.ID()
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	rec := JobRecord{ID: id, Spec: spec, Status: StatusDone, Created: now, Started: &now, Finished: &now}
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := cache.PutJobRecord(id, data); err != nil {
		t.Fatal(err)
	}
	// No cache.Put(id, ...): the result bytes are "gone".

	s := newTestScheduler(t, Options{Workers: 1, Cache: cache})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	final, err := s.Wait(ctx, id)
	if err != nil || final.Status != StatusDone {
		t.Fatalf("recompute: %+v, %v", final, err)
	}
	want, _ := echoRunSpec(ctx, spec, nil, 0)
	if !bytes.Equal(final.Result, want) {
		t.Fatalf("recomputed result = %s, want %s", final.Result, want)
	}
}

// TestJournalCorruptRecordSkipped: one undecodable journal file must not
// keep the scheduler from booting or from replaying its valid neighbors.
func TestJournalCorruptRecordSkipped(t *testing.T) {
	swapRunSpec(t, echoRunSpec)
	dir := t.TempDir()
	cache, err := NewCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	// A valid queued record...
	spec := fuzzSpec(9)
	id, err := spec.ID()
	if err != nil {
		t.Fatal(err)
	}
	rec := JobRecord{ID: id, Spec: spec, Status: StatusQueued, Created: time.Now()}
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := cache.PutJobRecord(id, data); err != nil {
		t.Fatal(err)
	}
	// ...next to garbage under a plausible ID, and a record whose ID field
	// disagrees with its filename.
	garbageID := strings.Repeat("ab", 32)
	if err := os.WriteFile(filepath.Join(dir, garbageID+".job.json"), []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	mismatchID := strings.Repeat("cd", 32)
	if err := os.WriteFile(filepath.Join(dir, mismatchID+".job.json"),
		[]byte(`{"id":"other","spec":{"kind":"explore","explore":{"mode":"fuzz"}},"status":"queued","created":"2026-01-01T00:00:00Z"}`), 0o644); err != nil {
		t.Fatal(err)
	}

	s := newDirScheduler(t, dir, Options{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	final, err := s.Wait(ctx, id)
	if err != nil || final.Status != StatusDone {
		t.Fatalf("valid record did not replay: %+v, %v", final, err)
	}
	if _, ok := s.Get(garbageID); ok {
		t.Fatal("garbage record produced a job")
	}
	if _, ok := s.Get(mismatchID); ok {
		t.Fatal("ID-mismatched record produced a job")
	}
}

// TestJournalRecordPrunedWithJob: pruning an old terminal job also
// deletes its journal record, so the journal does not grow forever under
// campaign churn.
func TestJournalRecordPrunedWithJob(t *testing.T) {
	swapRunSpec(t, echoRunSpec)
	dir := t.TempDir()
	s := newDirScheduler(t, dir, Options{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Overflow maxTrackedJobs so the oldest terminal jobs get pruned.
	var firstID string
	for seed := int64(0); seed < maxTrackedJobs+8; seed++ {
		view, _, err := s.Submit(fuzzSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		if seed == 0 {
			firstID = view.ID
		}
		if _, err := s.Wait(ctx, view.ID); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.Get(firstID); ok {
		t.Fatal("oldest job was not pruned")
	}
	if _, ok := s.Cache().GetJobRecord(firstID); ok {
		t.Fatal("pruned job's journal record survived")
	}
	// Its result is still content-addressed-cached, though.
	if _, ok := s.Cache().Get(firstID); !ok {
		t.Fatal("pruning removed the cached result, not just the record")
	}
}

// readRecord decodes the journal record for id from a fresh cache over dir,
// i.e. what a restarted server would replay.
func readRecord(t *testing.T, dir, id string) JobRecord {
	t.Helper()
	cache, err := NewCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	data, ok := cache.GetJobRecord(id)
	if !ok {
		t.Fatalf("no journal record for %s", id)
	}
	var rec JobRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestJournalStaleRecordLoses: a record snapshotted before the stored one
// (lower Seq) is dropped on write, in memory and on disk, so a writer that
// lost a race cannot regress a job's durable state.
func TestJournalStaleRecordLoses(t *testing.T) {
	dir := t.TempDir()
	cache, err := NewCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := fuzzSpec(3)
	id, err := spec.ID()
	if err != nil {
		t.Fatal(err)
	}
	put := func(seq uint64, status Status) {
		data, err := json.Marshal(JobRecord{ID: id, Spec: spec, Status: status, Seq: seq})
		if err != nil {
			t.Fatal(err)
		}
		if err := cache.PutJobRecord(id, data); err != nil {
			t.Fatal(err)
		}
	}
	put(3, StatusDone)
	put(1, StatusQueued) // stale: snapshotted before the done record
	data, _ := cache.GetJobRecord(id)
	var rec JobRecord
	if err := json.Unmarshal(data, &rec); err != nil || rec.Status != StatusDone {
		t.Fatalf("memory record = %+v, %v; want the done record", rec, err)
	}
	if rec := readRecord(t, dir, id); rec.Status != StatusDone || rec.Seq != 3 {
		t.Fatalf("disk record = status %s seq %d, want done seq 3", rec.Status, rec.Seq)
	}
}

// TestJournalSeqContinuesAcrossResubmitAndRestart: the records of a job
// that replaces a canceled one, and of a job replayed after a restart,
// continue the ID's sequence — they are never dropped as stale.
func TestJournalSeqContinuesAcrossResubmitAndRestart(t *testing.T) {
	started := make(chan struct{})
	var startedOnce sync.Once
	swapRunSpec(t, func(ctx context.Context, spec *Spec, p *Progress, parallel int) ([]byte, error) {
		startedOnce.Do(func() { close(started) })
		<-ctx.Done()
		return nil, ctx.Err()
	})
	dir := t.TempDir()
	cache1, err := NewCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := NewScheduler(Options{Workers: 1, Cache: cache1})
	if err != nil {
		t.Fatal(err)
	}
	view, _, err := s1.Submit(fuzzSpec(9))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	s1.Cancel(view.ID)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if final, err := s1.Wait(ctx, view.ID); err != nil || final.Status != StatusCanceled {
		t.Fatalf("canceled job: %+v, %v", final, err)
	}
	canceledSeq := readRecord(t, dir, view.ID).Seq

	// Resubmit: the fresh job's queued record must replace the tombstone.
	// A busy worker keeps it queued.
	busy := make(chan struct{})
	var busyOnce sync.Once
	swapRunSpec(t, func(ctx context.Context, spec *Spec, p *Progress, parallel int) ([]byte, error) {
		busyOnce.Do(func() { close(busy) })
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if _, _, err := s1.Submit(fuzzSpec(10)); err != nil {
		t.Fatal(err)
	}
	<-busy
	if _, _, err := s1.Submit(fuzzSpec(9)); err != nil {
		t.Fatal(err)
	}
	if rec := readRecord(t, dir, view.ID); rec.Status != StatusQueued || rec.Tombstone || rec.Seq <= canceledSeq {
		t.Fatalf("resubmitted record = status %s tombstone %v seq %d (canceled seq %d)", rec.Status, rec.Tombstone, rec.Seq, canceledSeq)
	}

	// Restart: the second life replays the queued record, and its done
	// record must land.
	queuedSeq := readRecord(t, dir, view.ID).Seq
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	swapRunSpec(t, echoRunSpec)
	s2 := newDirScheduler(t, dir, Options{Workers: 1})
	if final, err := s2.Wait(ctx, view.ID); err != nil || final.Status != StatusDone {
		t.Fatalf("replayed job: %+v, %v", final, err)
	}
	if rec := readRecord(t, dir, view.ID); rec.Status != StatusDone || rec.Seq <= queuedSeq {
		t.Fatalf("replayed record = status %s seq %d, want done past seq %d", rec.Status, rec.Seq, queuedSeq)
	}
}

// TestJournalRejectedResubmitKeepsTombstone: a resubmission of a canceled
// ID that the full queue rejects leaves the canceled job's record with
// it. The test plays Cancel's two halves around the resubmission — the
// job canceled in memory first, its tombstone journaled after the
// rejection — and the tombstone must still land and survive a restart.
func TestJournalRejectedResubmitKeepsTombstone(t *testing.T) {
	started := make(chan struct{})
	var startedOnce sync.Once
	swapRunSpec(t, func(ctx context.Context, spec *Spec, p *Progress, parallel int) ([]byte, error) {
		startedOnce.Do(func() { close(started) })
		<-ctx.Done()
		return nil, ctx.Err()
	})
	dir := t.TempDir()
	cache1, err := NewCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := NewScheduler(Options{Workers: 1, QueueDepth: 1, Cache: cache1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s1.Submit(fuzzSpec(20)); err != nil {
		t.Fatal(err)
	}
	<-started
	spec := fuzzSpec(21)
	view, _, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Cancel's first half: canceled in memory, counts moved, tombstone
	// not yet journaled.
	s1.mu.Lock()
	j := s1.jobs[view.ID]
	tq := s1.tq[j.tenant]
	tq.queued--
	s1.queuedTotal--
	s1.mu.Unlock()
	j.mu.Lock()
	j.status = StatusCanceled
	j.tombstoned = true
	j.finished = time.Now()
	j.mu.Unlock()

	// Another job fills the queue, and the resubmission is rejected.
	if _, _, err := s1.Submit(fuzzSpec(22)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s1.Submit(spec); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("resubmission into a full queue: err %v, want ErrQueueFull", err)
	}

	// Cancel's second half: the tombstone write.
	s1.journal(j)
	if rec := readRecord(t, dir, view.ID); rec.Status != StatusCanceled || !rec.Tombstone {
		t.Fatalf("record after rejected resubmission = status %s tombstone %v, want canceled tombstone", rec.Status, rec.Tombstone)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	swapRunSpec(t, echoRunSpec)
	s2 := newDirScheduler(t, dir, Options{Workers: 1})
	time.Sleep(20 * time.Millisecond)
	if got, ok := s2.Get(view.ID); !ok || got.Status != StatusCanceled {
		t.Fatalf("after restart: tracked %v status %s, want canceled", ok, got.Status)
	}
}
