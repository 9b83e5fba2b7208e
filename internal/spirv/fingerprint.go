package spirv

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
)

// Fingerprint returns the SHA-256 of the module's canonical binary encoding
// (EncodeBytes), computed lazily and cached in the module. The execution
// engine keys every cache layer on module content, and ddmin interestingness
// queries look the same original module up thousands of times per reduction;
// the cache turns those repeated full-module encode+hash walks into a pointer
// load. A miss streams the encoding into the hash, so it costs one walk and
// no copy of the module's bytes.
//
// Invalidation contract: mutating the module through its own methods
// (FreshID, ReserveIDs, and everything built on them — the Ensure* family)
// clears the cache, and opt.Pipeline clears it around a pass run. Code that
// rewrites the IR structurally by hand (appending instructions, editing
// operands in place) after a fingerprint may have been taken must call
// InvalidateFingerprint itself. In practice modules are frozen once they
// reach the engine — originals are immutable, fuzzed variants are finished
// before classification, and replay materializes a fresh module per query —
// and Clone starts with an empty cache, so a stale fingerprint requires
// hand-mutating a module between engine runs, which nothing in the repo does.
//
// Concurrent Fingerprint calls are safe on a module that is no longer being
// mutated: racing computations store identical hashes.
func (m *Module) Fingerprint() [sha256.Size]byte {
	if p := m.fp.Load(); p != nil {
		return *p
	}
	s := hashStream{h: sha256.New()}
	m.encode(s.word)
	s.flush()
	var h [sha256.Size]byte
	s.h.Sum(h[:0])
	m.fp.Store(&h)
	return h
}

// hashStream feeds little-endian words to a hash through a fixed buffer, so
// fingerprinting never materializes the module's encoding: the digest equals
// sha256.Sum256(m.EncodeBytes()) without building that slice.
type hashStream struct {
	h   hash.Hash
	n   int
	buf [512]byte
}

func (s *hashStream) word(w uint32) {
	if s.n == len(s.buf) {
		s.flush()
	}
	binary.LittleEndian.PutUint32(s.buf[s.n:], w)
	s.n += 4
}

func (s *hashStream) flush() {
	s.h.Write(s.buf[:s.n]) // hash.Hash writes never fail
	s.n = 0
}

// InvalidateFingerprint discards the cached fingerprint; the next
// Fingerprint call re-walks and re-hashes the module.
func (m *Module) InvalidateFingerprint() {
	if m.fp.Load() != nil {
		m.fp.Store(nil)
	}
}
