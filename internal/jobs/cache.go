package jobs

import (
	"container/list"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	// Entries is the number of results currently held in memory.
	Entries int `json:"entries"`
	// MaxEntries is the in-memory LRU capacity.
	MaxEntries int `json:"maxEntries"`
	// Hits counts Gets served from memory, DiskHits those revived from the
	// cache directory after an LRU eviction or a restart.
	Hits     int64 `json:"hits"`
	DiskHits int64 `json:"diskHits"`
	// Misses counts Gets that found nothing anywhere.
	Misses int64 `json:"misses"`
	// Evictions counts in-memory LRU evictions (the disk copy survives).
	Evictions int64 `json:"evictions"`
	// Dir is the persistence directory ("" = memory only).
	Dir string `json:"dir,omitempty"`
}

// Cache is the content-addressed result store: job ID (the SHA-256 of the
// canonical spec) → result bytes. In memory it is a bounded LRU; with a
// cache dir every stored result is also persisted as <id>.json via an
// atomic temp+rename write, so results survive both LRU eviction and
// process restarts, and a repeated spec is always served byte-identically.
//
// Alongside the immutable results the cache also stores *checkpoints*:
// mutable progress records for non-terminating work (campaign state,
// internal/campaign), keyed by the owning spec's content hash and
// persisted as <id>.ckpt.json. Checkpoints are overwritten in place — a
// deliberate departure from the write-once result contract — and are
// exempt from the LRU: there is at most one per long-lived campaign, and
// evicting one would silently rewind a restart to an older snapshot when
// the disk copy is absent (memory-only caches).
//
// The third record class is *job records* (<id>.job.json): the
// scheduler's write-ahead journal of every job's spec, tenant, and
// lifecycle (journal.go). Like checkpoints they are mutable and
// LRU-exempt; unlike checkpoints they are deleted when the scheduler
// prunes old terminal jobs.
type Cache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
	dir   string

	checkpoints map[string][]byte
	jobRecords  map[string]jobRecord

	// recMu orders PutJobRecord's compare-and-write per job ID: stripe
	// i serializes the IDs whose first byte is i, so writes to one ID
	// are ordered while writes to different IDs mostly run in parallel.
	recMu [256]sync.Mutex

	hits, diskHits, misses, evictions int64
}

// jobRecord is the memory mirror of one <id>.job.json, with its decoded
// sequence number so a write compares against it without decoding again.
type jobRecord struct {
	data []byte
	seq  uint64
}

type cacheEntry struct {
	id     string
	result []byte
}

// NewCache builds a cache holding up to maxEntries results in memory
// (≤ 0 means 128). A non-empty dir enables disk persistence; it is
// created if missing.
func NewCache(maxEntries int, dir string) (*Cache, error) {
	if maxEntries <= 0 {
		maxEntries = 128
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("jobs: cache dir: %w", err)
		}
	}
	return &Cache{
		max:         maxEntries,
		ll:          list.New(),
		items:       make(map[string]*list.Element),
		dir:         dir,
		checkpoints: make(map[string][]byte),
		jobRecords:  make(map[string]jobRecord),
	}, nil
}

var cacheIDPattern = regexp.MustCompile(`^[0-9a-f]{64}$`)

// Get returns the cached result for id, checking memory first and then
// the cache directory (a disk hit is promoted back into memory).
func (c *Cache) Get(id string) ([]byte, bool) {
	c.mu.Lock()
	if el, ok := c.items[id]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		result := el.Value.(*cacheEntry).result
		c.mu.Unlock()
		return result, true
	}
	c.mu.Unlock()

	if c.dir == "" || !cacheIDPattern.MatchString(id) {
		c.mu.Lock()
		c.misses++
		c.mu.Unlock()
		return nil, false
	}
	data, err := os.ReadFile(filepath.Join(c.dir, id+".json"))
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		c.misses++
		return nil, false
	}
	c.diskHits++
	c.insertLocked(id, data)
	return data, true
}

// Put stores a result under id, evicting the least recently used entry
// beyond capacity and persisting to disk when a cache dir is configured.
func (c *Cache) Put(id string, result []byte) error {
	if c.dir != "" {
		if !cacheIDPattern.MatchString(id) {
			return fmt.Errorf("jobs: cache id %q is not a sha256 hex digest", id)
		}
		if err := writeFileAtomic(filepath.Join(c.dir, id+".json"), result); err != nil {
			return fmt.Errorf("jobs: cache persist: %w", err)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.insertLocked(id, result)
	return nil
}

func (c *Cache) insertLocked(id string, result []byte) {
	if el, ok := c.items[id]; ok {
		el.Value.(*cacheEntry).result = result
		c.ll.MoveToFront(el)
		return
	}
	c.items[id] = c.ll.PushFront(&cacheEntry{id: id, result: result})
	for c.ll.Len() > c.max {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*cacheEntry).id)
		c.evictions++
	}
}

// PutCheckpoint stores (or overwrites) the checkpoint record for id,
// persisting <id>.ckpt.json atomically when a cache dir is configured. The
// write is atomic, so a server killed mid-checkpoint leaves the previous
// complete snapshot — a resume never sees a torn record.
func (c *Cache) PutCheckpoint(id string, data []byte) error {
	if !cacheIDPattern.MatchString(id) {
		return fmt.Errorf("jobs: checkpoint id %q is not a sha256 hex digest", id)
	}
	if c.dir != "" {
		if err := writeFileAtomic(filepath.Join(c.dir, id+".ckpt.json"), data); err != nil {
			return fmt.Errorf("jobs: checkpoint persist: %w", err)
		}
	}
	c.mu.Lock()
	c.checkpoints[id] = append([]byte(nil), data...)
	c.mu.Unlock()
	return nil
}

// GetCheckpoint returns the checkpoint record for id, checking memory
// first and then the cache directory.
func (c *Cache) GetCheckpoint(id string) ([]byte, bool) {
	c.mu.Lock()
	if data, ok := c.checkpoints[id]; ok {
		c.mu.Unlock()
		return append([]byte(nil), data...), true
	}
	c.mu.Unlock()
	if c.dir == "" || !cacheIDPattern.MatchString(id) {
		return nil, false
	}
	data, err := os.ReadFile(filepath.Join(c.dir, id+".ckpt.json"))
	if err != nil {
		return nil, false
	}
	c.mu.Lock()
	c.checkpoints[id] = append([]byte(nil), data...)
	c.mu.Unlock()
	return data, true
}

// PutJobRecord stores (or overwrites) the journal record for id,
// persisting <id>.job.json atomically when a cache dir is configured.
// Job records are the scheduler's write-ahead journal (journal.go): like
// checkpoints they are mutable, LRU-exempt, and overwritten in place on
// every status transition, so the newest complete record always survives
// a SIGKILL (the atomic rename never leaves a torn file).
//
// Records are ordered by their "seq" field (JobRecord.Seq). A record
// whose seq is below the stored one's is stale — its snapshot was taken
// before the stored record's — and is dropped, so a writer that lost a
// race can never regress a job's durable state. Writes to one ID are
// serialized, so the file and the memory mirror (which boot replay fills
// from the directory) always agree on the newest record.
func (c *Cache) PutJobRecord(id string, data []byte) error {
	if !cacheIDPattern.MatchString(id) {
		return fmt.Errorf("jobs: job record id %q is not a sha256 hex digest", id)
	}
	stripe, _ := strconv.ParseUint(id[:2], 16, 8)
	c.recMu[stripe].Lock()
	defer c.recMu[stripe].Unlock()
	seq := recordSeq(data)
	c.mu.Lock()
	stored, ok := c.jobRecords[id]
	c.mu.Unlock()
	if ok && seq < stored.seq {
		return nil
	}
	if c.dir != "" {
		if err := writeFileAtomic(filepath.Join(c.dir, id+".job.json"), data); err != nil {
			return fmt.Errorf("jobs: job record persist: %w", err)
		}
	}
	c.mu.Lock()
	c.jobRecords[id] = jobRecord{data: append([]byte(nil), data...), seq: seq}
	c.mu.Unlock()
	return nil
}

// recordSeq returns a job record's sequence number; a record that does not
// decode carries no order and counts as 0.
func recordSeq(data []byte) uint64 {
	var head struct {
		Seq uint64 `json:"seq"`
	}
	_ = json.Unmarshal(data, &head)
	return head.Seq
}

// GetJobRecord returns the journal record for id, checking memory first
// and then the cache directory.
func (c *Cache) GetJobRecord(id string) ([]byte, bool) {
	c.mu.Lock()
	if rec, ok := c.jobRecords[id]; ok {
		c.mu.Unlock()
		return append([]byte(nil), rec.data...), true
	}
	c.mu.Unlock()
	if c.dir == "" || !cacheIDPattern.MatchString(id) {
		return nil, false
	}
	data, err := os.ReadFile(filepath.Join(c.dir, id+".job.json"))
	if err != nil {
		return nil, false
	}
	seq := recordSeq(data)
	c.mu.Lock()
	if _, ok := c.jobRecords[id]; !ok {
		c.jobRecords[id] = jobRecord{data: append([]byte(nil), data...), seq: seq}
	}
	c.mu.Unlock()
	return data, true
}

// DeleteJobRecord forgets the journal record for id (memory and disk).
// The scheduler calls it when pruning old terminal jobs: the result
// stays in the content-addressed cache, only the lifecycle record goes.
func (c *Cache) DeleteJobRecord(id string) {
	c.mu.Lock()
	delete(c.jobRecords, id)
	c.mu.Unlock()
	if c.dir != "" && cacheIDPattern.MatchString(id) {
		_ = os.Remove(filepath.Join(c.dir, id+".job.json"))
	}
}

// JobRecords lists the IDs with a journal record, sorted — memory and
// (when persistent) the cache directory combined. A restarted scheduler
// iterates this to replay every job the previous life journaled.
func (c *Cache) JobRecords() []string {
	seen := make(map[string]struct{})
	c.mu.Lock()
	for id := range c.jobRecords {
		seen[id] = struct{}{}
	}
	c.mu.Unlock()
	if c.dir != "" {
		if matches, err := filepath.Glob(filepath.Join(c.dir, "*.job.json")); err == nil {
			for _, path := range matches {
				id := strings.TrimSuffix(filepath.Base(path), ".job.json")
				if cacheIDPattern.MatchString(id) {
					seen[id] = struct{}{}
				}
			}
		}
	}
	out := make([]string, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Checkpoints lists the IDs with a checkpoint record, sorted — memory and
// (when persistent) the cache directory combined. A restarted server
// iterates this to resume every campaign the previous life checkpointed.
func (c *Cache) Checkpoints() []string {
	seen := make(map[string]struct{})
	c.mu.Lock()
	for id := range c.checkpoints {
		seen[id] = struct{}{}
	}
	c.mu.Unlock()
	if c.dir != "" {
		if matches, err := filepath.Glob(filepath.Join(c.dir, "*.ckpt.json")); err == nil {
			for _, path := range matches {
				id := strings.TrimSuffix(filepath.Base(path), ".ckpt.json")
				if cacheIDPattern.MatchString(id) {
					seen[id] = struct{}{}
				}
			}
		}
	}
	out := make([]string, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:    c.ll.Len(),
		MaxEntries: c.max,
		Hits:       c.hits,
		DiskHits:   c.diskHits,
		Misses:     c.misses,
		Evictions:  c.evictions,
		Dir:        c.dir,
	}
}

// writeFileAtomic writes data to a temp file in path's directory and
// renames it into place, so readers never observe a partial result.
func writeFileAtomic(path string, data []byte) (err error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if _, err = tmp.Write(data); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
