package streamfmt

// Index-layer unit tests for the seekable path: OpenIndex must derive
// the exact offset table from the tail index frame alone, refuse any
// container whose index does not verify or whose arithmetic does not
// close, and FrameReader must verify each fetched frame against it.

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

func seekPayloads() [][]byte {
	return [][]byte{
		[]byte("chunk-zero"),
		[]byte("chunk-one-longer-payload"),
		[]byte("z"),
	}
}

func TestOpenIndexOffsets(t *testing.T) {
	payloads := seekPayloads()
	stream := buildStream(t, testHeader(), payloads)
	ix, err := OpenIndex(bytes.NewReader(stream), Limits{})
	if err != nil {
		t.Fatalf("OpenIndex: %v", err)
	}
	if ix.Chunks() != len(payloads) || ix.Size != int64(len(stream)) {
		t.Fatalf("chunks=%d size=%d", ix.Chunks(), ix.Size)
	}
	for i, p := range payloads {
		if ix.Lens[i] != uint64(len(p)) {
			t.Errorf("len[%d] = %d, want %d", i, ix.Lens[i], len(p))
		}
		lo, hi := ix.FrameExtent(i)
		if stream[lo] != tagChunk {
			t.Errorf("chunk %d offset %d is not a chunk tag", i, lo)
		}
		// The payload occupies the tail of the frame extent.
		if !bytes.Equal(stream[hi-int64(len(p)):hi], p) {
			t.Errorf("chunk %d payload not at [%d,%d)", i, hi-int64(len(p)), hi)
		}
	}
	if _, last := ix.FrameExtent(len(payloads) - 1); last != ix.IndexOff {
		t.Errorf("frames end at %d, index at %d", last, ix.IndexOff)
	}
}

func TestOpenIndexFrameReader(t *testing.T) {
	payloads := seekPayloads()
	stream := buildStream(t, testHeader(), payloads)
	ix, err := OpenIndex(bytes.NewReader(stream), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	// Read chunks [1,3) from a reader positioned at chunk 1.
	off, _ := ix.FrameExtent(1)
	fr := ix.Frames(bytes.NewReader(stream[off:]), 1, 3)
	var scratch []byte
	for want := 1; want < 3; want++ {
		payload, frame, seq, err := fr.Next(scratch)
		if err != nil {
			t.Fatalf("Next(%d): %v", want, err)
		}
		if seq != want || !bytes.Equal(payload, payloads[want]) {
			t.Fatalf("Next returned seq %d payload %q", seq, payload)
		}
		scratch = frame
	}
	if _, _, _, err := fr.Next(scratch); err != io.EOF {
		t.Fatalf("after last chunk: err = %v, want io.EOF", err)
	}
	if fr.BytesRead() != ix.ExtentBytes(1, 3) {
		t.Fatalf("BytesRead = %d, want %d", fr.BytesRead(), ix.ExtentBytes(1, 3))
	}
}

func TestOpenIndexRejectsDamage(t *testing.T) {
	payloads := seekPayloads()
	stream := buildStream(t, testHeader(), payloads)

	// Truncation anywhere in the container kills the tail index.
	for _, cut := range []int{len(stream) - 1, len(stream) - 3, len(stream) / 2} {
		if _, err := OpenIndex(bytes.NewReader(stream[:cut]), Limits{}); !errors.Is(err, ErrCorrupt) {
			t.Errorf("trunc@%d: err = %v, want ErrCorrupt", cut, err)
		}
	}
	// A flipped index CRC byte must not be trusted.
	mut := append([]byte(nil), stream...)
	mut[len(mut)-2] ^= 0x40
	if _, err := OpenIndex(bytes.NewReader(mut), Limits{}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("index CRC flip: err = %v", err)
	}
	// A byte inserted before the index frame shifts the frame offsets:
	// the index still verifies, but the arithmetic no longer closes.
	ix, err := OpenIndex(bytes.NewReader(stream), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	ins := append([]byte(nil), stream[:ix.IndexOff]...)
	ins = append(ins, 0x00)
	ins = append(ins, stream[ix.IndexOff:]...)
	if _, err := OpenIndex(bytes.NewReader(ins), Limits{}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("inserted byte: err = %v, want ErrCorrupt", err)
	}
	// Too short to hold the declared chunk count at all: ErrTruncated.
	short := append([]byte(nil), stream[:10]...)
	if _, err := OpenIndex(bytes.NewReader(short), Limits{}); !errors.Is(err, ErrTruncated) {
		t.Errorf("short container: err = %v, want ErrTruncated", err)
	}
}

func TestOpenIndexLimits(t *testing.T) {
	stream := buildStream(t, testHeader(), seekPayloads())
	if _, err := OpenIndex(bytes.NewReader(stream), Limits{MaxElements: 4}); !errors.Is(err, ErrLimit) {
		t.Errorf("MaxElements: err = %v", err)
	}
	if _, err := OpenIndex(bytes.NewReader(stream), Limits{MaxChunkBytes: 8}); !errors.Is(err, ErrLimit) {
		t.Errorf("MaxChunkBytes: err = %v", err)
	}
	if _, err := OpenIndex(bytes.NewReader(stream), Limits{MaxElements: 1 << 20, MaxChunkBytes: 1 << 20}); err != nil {
		t.Errorf("generous limits: %v", err)
	}
}

func TestFrameReaderDetectsPayloadDamage(t *testing.T) {
	payloads := seekPayloads()
	stream := buildStream(t, testHeader(), payloads)
	ix, err := OpenIndex(bytes.NewReader(stream), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := ix.FrameExtent(1)
	for pos := lo; pos < hi; pos++ {
		mut := append([]byte(nil), stream...)
		mut[pos] ^= 0x10
		// Chunk 0 is untouched and must still verify.
		fr := ix.Frames(bytes.NewReader(mut[ix.HeaderLen:]), 0, 2)
		if _, _, seq, err := fr.Next(nil); err != nil || seq != 0 {
			t.Fatalf("flip@%d: chunk 0 rejected: %v", pos, err)
		}
		// Chunk 1 carries the damage and must fail its CRC/extent check.
		if _, _, _, err := fr.Next(nil); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip@%d: chunk 1 accepted (err = %v)", pos, err)
		}
	}
}

// TestIndexReadersAgree rewrites one chunk length in a sealed index
// frame as a non-canonical two-byte varint of the same value and keeps
// the written CRC. The CRC covers the bytes as written, so every index
// reader — the sequential Reader, OpenIndex and the salvage scan — must
// refuse the frame; none may re-encode what it parsed and accept it.
func TestIndexReadersAgree(t *testing.T) {
	for _, c := range []struct {
		name     string
		hdr      Header
		payloads [][]byte
	}{
		{"v1", testHeader(), seekPayloads()},
		{"v2", parityHeader(2), parityPayloads()},
	} {
		stream := buildStream(t, c.hdr, c.payloads)
		ix, err := OpenIndex(bytes.NewReader(stream), Limits{})
		if err != nil {
			t.Fatalf("%s: clean container: %v", c.name, err)
		}
		// tag, one-byte count, then chunk 0's one-byte length.
		at := ix.IndexOff + 2
		if b := stream[at]; b >= 0x80 || uint64(b) != ix.Lens[0] {
			t.Fatalf("%s: index byte %d is 0x%02x, want chunk 0's length %d", c.name, at, b, ix.Lens[0])
		}
		mut := append([]byte(nil), stream[:at]...)
		mut = append(mut, stream[at]|0x80, 0x00)
		mut = append(mut, stream[at+1:]...)

		r, err := NewReader(bytes.NewReader(mut))
		if err != nil {
			t.Fatalf("%s: header: %v", c.name, err)
		}
		for {
			_, err := r.Next(nil)
			if err == io.EOF {
				t.Fatalf("%s: Reader accepted the non-canonical index", c.name)
			}
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("%s: Reader: err = %v, want ErrCorrupt", c.name, err)
				}
				break
			}
		}
		if _, err := OpenIndex(bytes.NewReader(mut), Limits{}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: OpenIndex: err = %v, want ErrCorrupt", c.name, err)
		}
		rep, err := ScanSalvage(mut, Limits{})
		if err != nil {
			t.Fatalf("%s: ScanSalvage: %v", c.name, err)
		}
		if rep.IndexOK {
			t.Fatalf("%s: ScanSalvage trusted the non-canonical index", c.name)
		}
	}
}
