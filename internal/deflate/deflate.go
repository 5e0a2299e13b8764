// Package deflate runs the codecs' lossless DEFLATE passes (SZ's stage III
// and the transform's sign bitmap) on pooled compress/flate state. A
// flate.Writer carries about 1.2 MB of match tables and a reader a 32 KiB
// window, so building fresh ones costs a small chunk more than its own
// coding does. The pools hold only that fixed state: neither keeps a
// reference to the data passed through it, and nothing in them is sized to
// a chunk.
package deflate

import (
	"bytes"
	"compress/flate"
	"io"
	"sync"
)

var (
	writers sync.Pool // *flate.Writer at flate.BestSpeed
	readers sync.Pool // *reader
)

// reader is a pooled decompressor with the bytes.Reader it reads from.
type reader struct {
	src bytes.Reader
	zr  io.ReadCloser // a flate.Resetter over &src
}

// Compress returns src compressed at flate.BestSpeed.
func Compress(src []byte) ([]byte, error) {
	var out bytes.Buffer
	zw, _ := writers.Get().(*flate.Writer)
	if zw == nil {
		var err error
		if zw, err = flate.NewWriter(&out, flate.BestSpeed); err != nil {
			return nil, err
		}
	} else {
		zw.Reset(&out)
	}
	if _, err := zw.Write(src); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	zw.Reset(io.Discard) // drop the reference to out before pooling
	writers.Put(zw)
	return out.Bytes(), nil
}

// Decompress returns at most limit bytes of the decompression of src; it
// fails if src is corrupt or truncated before that point. A caller that
// needs an exact size compares the length.
func Decompress(src []byte, limit int64) ([]byte, error) {
	r, _ := readers.Get().(*reader)
	if r == nil {
		r = new(reader)
		r.src.Reset(src)
		r.zr = flate.NewReader(&r.src)
	} else {
		r.src.Reset(src)
		if err := r.zr.(flate.Resetter).Reset(&r.src, nil); err != nil {
			return nil, err
		}
	}
	out, err := io.ReadAll(io.LimitReader(r.zr, limit))
	r.src.Reset(nil) // drop the reference to src before pooling
	readers.Put(r)
	return out, err
}
