package repro

import (
	"fmt"

	"repro/internal/codecerr"
)

// The decode-error taxonomy. Every decode path in the module (plain,
// parallel, stream, archive) wraps these sentinels with %w, so callers
// dispatch with errors.Is:
//
//	_, _, err := repro.DecompressAny(buf)
//	switch {
//	case errors.Is(err, repro.ErrTruncated):      // resumable: fetch the rest
//	case errors.Is(err, repro.ErrLimitExceeded):  // well-formed but too big
//	case errors.Is(err, repro.ErrCorrupted):      // damaged: salvage or discard
//	case errors.Is(err, repro.ErrUnsupportedFormat): // not ours
//	}
//
// ErrTruncated wraps ErrCorrupted (truncation is a species of damage),
// so a caller that only distinguishes "bad bytes" from "refused" can
// test ErrCorrupted alone. Genuine I/O errors from a source reader or
// sink writer are never relabeled: they propagate wrapped, and
// errors.Is against the original error keeps working.
var (
	// ErrCorrupted reports a structurally damaged container: bad
	// framing, a checksum mismatch, an impossible geometry.
	ErrCorrupted = codecerr.ErrCorrupted

	// ErrTruncated reports input that ends before its container
	// structure does. It wraps ErrCorrupted.
	ErrTruncated = codecerr.ErrTruncated

	// ErrLimitExceeded reports well-formed input that declares
	// resources beyond the caller's DecodeLimits.
	ErrLimitExceeded = codecerr.ErrLimitExceeded

	// ErrUnsupportedFormat reports bytes that are not any container
	// this module decodes (wrong magic or version).
	ErrUnsupportedFormat = codecerr.ErrUnsupportedFormat
)

// ErrVerifyFailed reports a chunk that failed verify-after-encode
// (WithVerifyOnWrite): the sealed payload did not decode back to its source rows within the promised
// guarantees. It indicates encoder or memory corruption at write time,
// caught before the container was committed.
var ErrVerifyFailed = fmt.Errorf("repro: verify-after-encode failed")

// recoverDecode is the panic boundary at every exported decode entry
// point: a residual codec panic on hostile input (anything the fault
// sweeps and the fuzz corpus have not pinned down yet) surfaces as
// ErrCorrupted instead of crossing the API edge. Use as
//
//	defer recoverDecode(&err)
//
// with a named error return.
func recoverDecode(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("%w: decoder panic: %v", ErrCorrupted, r)
	}
}
