package campaign

import (
	"crypto/sha256"
	"encoding/hex"
)

// Entry is one kept corpus schedule and its provenance.
type Entry struct {
	// Schedule is the interesting schedule (the run's delivered pids).
	Schedule []int `json:"schedule"`
	// Round and Slot locate the run that produced it.
	Round int `json:"round"`
	Slot  int `json:"slot"`
	// NewDigests is how many previously unseen state digests the run
	// reached — the reason the entry was kept.
	NewDigests int `json:"newDigests"`
}

// Corpus is the ordered set of interesting schedules. Order is insertion
// order (round-major, slot-minor — the deterministic merge order), which
// makes both the eviction policy and the digest reproducible.
type Corpus struct {
	Entries []Entry `json:"entries"`
}

// Add appends an entry, evicting the oldest entries beyond maxEntries.
func (c *Corpus) Add(e Entry, maxEntries int) {
	c.Entries = append(c.Entries, e)
	if maxEntries > 0 && len(c.Entries) > maxEntries {
		c.Entries = c.Entries[len(c.Entries)-maxEntries:]
	}
}

// Len returns the number of kept entries.
func (c *Corpus) Len() int { return len(c.Entries) }

// Schedules returns the corpus schedules in insertion order — the wire
// form a RoundSpec carries.
func (c *Corpus) Schedules() [][]int {
	out := make([][]int, len(c.Entries))
	for i, e := range c.Entries {
		out[i] = e.Schedule
	}
	return out
}

// Digest returns the SHA-256 (lowercase hex) of the corpus's canonical
// JSON. Two campaign replicas that evolved the same corpus — the
// determinism tests' claim — produce equal digests.
func (c *Corpus) Digest() string {
	canon, err := CanonicalJSON(c.Entries)
	if err != nil {
		// Entries are plain ints; marshalling cannot fail.
		panic(err)
	}
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:])
}
