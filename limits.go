package repro

import (
	"fmt"

	"repro/internal/streamfmt"
)

// DecodeLimits bounds the resources a decoder will commit to an
// input-declared geometry, enforced before any input-derived
// allocation. A service decoding containers it did not produce sets
// limits matched to its memory budget; a hostile or damaged header
// then fails fast with ErrLimitExceeded instead of attempting a huge
// allocation.
//
// The zero value (and a nil *DecodeLimits) means "no limits", which is
// appropriate only for trusted input. Fields left zero are unlimited.
//
// Pass limits with WithLimits to DecompressStreamOpts, DecompressAny,
// DecompressStreamSalvage, OpenArchive, OpenArchiveStream, or the
// seekable OpenStream, where MaxElements is checked against the header
// geometry before the tail index is even read and MaxChunkBytes against
// every index-declared length before a frame buffer is allocated.
// Salvage applies MaxChunkBytes per frame: an oversized chunk is lost
// like a damaged one, not refused with the container.
type DecodeLimits struct {
	// MaxElements caps the total number of field elements a container
	// may declare (the decoded size is 8 bytes per element).
	MaxElements int64
	// MaxChunkBytes caps one compressed chunk frame or archive blob;
	// parity frames in a self-healing stream container count against it
	// like any other frame (a parity payload is exactly as long as its
	// group's longest chunk payload).
	MaxChunkBytes int64
	// MaxFields caps the number of fields an archive directory may
	// declare.
	MaxFields int
}

// streamLimits converts to the streaming container's limit set.
func (l *DecodeLimits) streamLimits() streamfmt.Limits {
	if l == nil {
		return streamfmt.Limits{}
	}
	return streamfmt.Limits{MaxElements: l.MaxElements, MaxChunkBytes: l.MaxChunkBytes}
}

// maxChunkBytes returns the chunk/blob byte cap (0 = unlimited),
// nil-safe.
func (l *DecodeLimits) maxChunkBytes() int64 {
	if l == nil {
		return 0
	}
	return l.MaxChunkBytes
}

// checkElements enforces MaxElements against a declared element count.
func (l *DecodeLimits) checkElements(n int64) error {
	if l != nil && l.MaxElements > 0 && n > l.MaxElements {
		return fmt.Errorf("%w: container declares %d elements, limit %d", ErrLimitExceeded, n, l.MaxElements)
	}
	return nil
}

// checkChunkBytes enforces MaxChunkBytes against one chunk/blob length.
func (l *DecodeLimits) checkChunkBytes(n int64) error {
	if l != nil && l.MaxChunkBytes > 0 && n > l.MaxChunkBytes {
		return fmt.Errorf("%w: chunk of %d bytes, limit %d", ErrLimitExceeded, n, l.MaxChunkBytes)
	}
	return nil
}

// checkFields enforces MaxFields against an archive directory count.
func (l *DecodeLimits) checkFields(n int) error {
	if l != nil && l.MaxFields > 0 && n > l.MaxFields {
		return fmt.Errorf("%w: archive declares %d fields, limit %d", ErrLimitExceeded, n, l.MaxFields)
	}
	return nil
}
