package shmem

import (
	"encoding/binary"
	"fmt"
)

// AppendFingerprint appends a compact binary rendering of the register-file
// state to dst: a uvarint register count, then per touched register (in
// increasing index order) a uvarint index, the length-prefixed %v rendering
// of the value, and the canonical Pset bitset words (PidBits.AppendBinary).
// The count prefix makes the block self-delimiting, so callers can
// concatenate it with other key material without separators.
//
// This is the one encoder of the format: llsc.Memory.AppendFingerprint
// calls it under its lock, and the Blelloch–Wei backend (package
// algos/bwllsc) reproduces it byte for byte. The exploration harness folds
// it into its memoization keys, and the differential-testing harness
// (package lockstep) into its exhaustive-search keys, comparing the
// fingerprints of the two engines' memories directly.
func (m *Memory) AppendFingerprint(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(m.touched)))
	for _, i := range m.touched {
		r := m.regs[i]
		dst = binary.AppendUvarint(dst, uint64(i))
		m.fpScratch = fmt.Appendf(m.fpScratch[:0], "%v", r.val)
		dst = binary.AppendUvarint(dst, uint64(len(m.fpScratch)))
		dst = append(dst, m.fpScratch...)
		dst = r.pset.AppendBinary(dst)
	}
	return dst
}
