package universal

import "jayanti98/internal/objtype"

// ReplayMemo exposes the replay memo to the external differential tests,
// which need package lowerbound (itself an importer of universal).
type ReplayMemo = replayMemo

// NewReplayMemo returns an empty memo for typ at n processes.
func NewReplayMemo(typ objtype.Type, n int) *ReplayMemo { return newReplayMemo(typ, n) }

// Response returns the response of record (pid, seq) in log.
func (m *replayMemo) Response(log Log, pid, seq int) objtype.Value { return m.response(log, pid, seq) }
