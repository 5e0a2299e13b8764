package repro

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"testing"

	"repro/internal/faultio"
	"repro/internal/grid"
	"repro/internal/streamfmt"
)

// Fuzz targets: run with `go test -fuzz=FuzzDecompress` etc.; in a normal
// `go test` run they execute their seed corpus, acting as additional
// regression tests for the parsers' robustness.

func fuzzSeedStreams(f *testing.F) {
	data := []float64{1, 2, 3, 4, 0, -5, 6, 7}
	for _, algo := range RelativeAlgorithms() {
		if buf, err := Compress(data, []int{8}, 0.01, algo, nil); err == nil {
			f.Add(buf)
		}
	}
	if buf, err := CompressAbs(data, []int{2, 4}, 0.01, SZABS, nil); err == nil {
		f.Add(buf)
	}
	if buf, err := CompressFixedRate(data, []int{8}, 8); err == nil {
		f.Add(buf)
	}
	f.Add([]byte{})
	f.Add([]byte{containerMagic})
	f.Add([]byte{containerMagic, byte(SZT), 0, 0, 0, 0})
}

// FuzzDecompress asserts the top-level decoder never panics and that any
// successfully decoded stream has a consistent shape.
func FuzzDecompress(f *testing.F) {
	fuzzSeedStreams(f)
	f.Fuzz(func(t *testing.T, buf []byte) {
		data, dims, err := Decompress(buf)
		if err != nil {
			return
		}
		n := 1
		for _, d := range dims {
			if d <= 0 {
				t.Fatalf("nonpositive dim %v", dims)
			}
			n *= d
		}
		if n != len(data) {
			t.Fatalf("dims %v product %d != len %d", dims, n, len(data))
		}
	})
}

// FuzzDecompressParallel covers the legacy chunked container (0xC6)
// through DecompressAny, the entry point that still reads it.
func FuzzDecompressParallel(f *testing.F) {
	data := make([]float64, 64)
	for i := range data {
		data[i] = float64(i) + 1
	}
	if buf, err := buildParallelV1(data, []int{8, 8}, 0.01, SZT, 3); err == nil {
		f.Add(buf)
	}
	f.Add([]byte{parallelMagic, 1, 8})
	// Hostile geometry: 512×4194519 elements declared over four chunks
	// of one or two bytes. The chunks must fail to decode before any of
	// the 17 GB the header claims is allocated.
	f.Add([]byte("\xc6\x01\x02\x80\x04\xd7\x81\x80\x02\x04\x01\x01\x01\x02\x01\x05\x05\x05\x02\x04" +
		"\xb2\x01\x04\x18\xea\xaa\xf6\x863\xe0\x00\x00\xe3"))
	f.Fuzz(func(t *testing.T, buf []byte) {
		data, dims, err := DecompressAny(buf, WithWorkers(2))
		if err != nil {
			return
		}
		n := 1
		for _, d := range dims {
			n *= d
		}
		if n != len(data) {
			t.Fatalf("shape mismatch")
		}
	})
}

// FuzzOpenArchive covers the archive index parser.
func FuzzOpenArchive(f *testing.F) {
	if blob, err := Compress([]float64{1, 2, 3, 4}, []int{4}, 0.1, SZT, nil); err == nil {
		f.Add(buildArchiveV2([]struct {
			name    string
			off, ln uint64
		}{{"a", 0, uint64(len(blob))}}, blob))
	}
	f.Add([]byte{archiveMagic, 0})
	f.Fuzz(func(t *testing.T, buf []byte) {
		r, err := OpenArchive(buf)
		if err != nil {
			return
		}
		for _, name := range r.Fields() {
			_, _, _ = r.Field(name)
		}
	})
}

// FuzzHeaderMutation flips bytes of known-good streams. The input tuple
// (stream, position, xor mask) lets the fuzzer steer mutations into the
// exact header fields that size the decode: container rank and dims,
// Huffman table alphabet/length fields, window and block sizes, and the
// payload-length varints (where a continuation-bit flip
// manufactures a near-2^64 length). Every decoder must reject corruption
// with an error or decode to a consistent shape — no panics and no
// unguarded attacker-sized allocations.
func FuzzHeaderMutation(f *testing.F) {
	data := make([]float64, 96)
	for i := range data {
		data[i] = math.Sin(float64(i))*100 + 0.5
	}
	type stream struct {
		buf    []byte
		decode func(t *testing.T, b []byte)
	}
	var streams []stream
	checkShape := func(t *testing.T, vals []float64, dims []int, err error) {
		if err != nil {
			return
		}
		n := 1
		for _, d := range dims {
			if d <= 0 {
				t.Fatalf("nonpositive dim %v", dims)
			}
			n *= d
		}
		if n != len(vals) {
			t.Fatalf("dims %v product %d != len %d", dims, n, len(vals))
		}
	}
	container := func(t *testing.T, b []byte) {
		vals, dims, err := Decompress(b)
		checkShape(t, vals, dims, err)
	}
	for _, algo := range RelativeAlgorithms() {
		if buf, err := Compress(data, []int{96}, 1e-2, algo, nil); err == nil {
			streams = append(streams, stream{buf, container})
		}
	}
	if buf, err := CompressAbs(data, []int{12, 8}, 1e-2, SZABS, nil); err == nil {
		streams = append(streams, stream{buf, container})
	}
	if buf, err := buildParallelV1(data, []int{12, 8}, 1e-2, SZT, 3); err == nil {
		streams = append(streams, stream{buf, func(t *testing.T, b []byte) {
			vals, dims, err := DecompressAny(b, WithWorkers(2))
			checkShape(t, vals, dims, err)
		}})
	}
	if blob, err := Compress(data, []int{96}, 1e-2, SZT, nil); err == nil {
		arch := buildArchiveV2([]struct {
			name    string
			off, ln uint64
		}{{"density", 0, uint64(len(blob))}}, blob)
		streams = append(streams, stream{arch, func(t *testing.T, b []byte) {
			r, err := OpenArchive(b)
			if err != nil {
				return
			}
			for _, name := range r.Fields() {
				vals, dims, err := r.Field(name)
				checkShape(t, vals, dims, err)
			}
		}})
	}

	// Seed the header region of every stream: the magic, rank/dims
	// varints, entropy-table sizes, and the payload-length varints all
	// live in the first few dozen bytes.
	for i := range streams {
		for _, pos := range []uint16{0, 1, 2, 4, 5, 6, 8, 10, 12, 16, 20, 24, 32} {
			f.Add(uint16(i), pos, byte(0xFF))
			f.Add(uint16(i), pos, byte(0x80))
			f.Add(uint16(i), pos, byte(0x01))
		}
	}
	f.Fuzz(func(t *testing.T, which, pos uint16, mask byte) {
		if len(streams) == 0 {
			t.Skip("no seed streams built")
		}
		s := streams[int(which)%len(streams)]
		if len(s.buf) == 0 {
			return
		}
		mut := append([]byte(nil), s.buf...)
		mut[int(pos)%len(mut)] ^= mask
		s.decode(t, mut)
	})
}

// fuzzStreamContainer builds a small valid stream container for seeding.
func fuzzStreamContainer(chunkRows int) []byte {
	return fuzzStreamContainerParity(chunkRows, 0)
}

// fuzzStreamContainerParity is fuzzStreamContainer with a parity layer.
func fuzzStreamContainerParity(chunkRows, parityK int) []byte {
	data := make([]float64, 48)
	for i := range data {
		data[i] = math.Cos(float64(i)/5)*40 + 60
	}
	raw := make([]byte, len(data)*8)
	for i, v := range data {
		binary.LittleEndian.PutUint64(raw[i*8:], math.Float64bits(v))
	}
	var buf bytes.Buffer
	if _, err := CompressStreamOpts(bytes.NewReader(raw), &buf, []int{12, 4}, 1e-2, SZT,
		WithChunkRows(chunkRows), WithParity(parityK)); err != nil {
		return nil
	}
	return buf.Bytes()
}

// parityFuzzSeeds returns the parity-container damage variants every
// stream-consuming fuzz target is seeded with: clean, damaged data
// chunk, damaged parity frame, damaged index, truncated.
func parityFuzzSeeds() [][]byte {
	stream := fuzzStreamContainerParity(2, 2) // 6 chunks, 3 parity groups
	if stream == nil {
		return nil
	}
	seeds := [][]byte{stream}
	if rep, err := streamfmt.ScanSalvage(stream, streamfmt.Limits{}); err == nil && rep.IndexOK {
		chunk := append([]byte(nil), stream...)
		chunk[rep.Frames[2].End-1] ^= 0x20
		seeds = append(seeds, chunk)
		par := append([]byte(nil), stream...)
		par[rep.Parity[0].End-1] ^= 0x20
		seeds = append(seeds, par)
		idx := append([]byte(nil), stream...)
		idx[len(idx)-2] ^= 0x40
		seeds = append(seeds, idx)
	}
	seeds = append(seeds, stream[:len(stream)*3/4])
	return seeds
}

// FuzzDecompressStream asserts the streaming decoder never panics,
// never hangs its pipeline, and never allocates ahead of the bytes it
// has actually received; truncation and corruption of frame headers
// must surface as errors (the guard-before-use discipline of the slice
// decoders, extended to the io.Reader path). On success the emitted byte
// count must agree with the container header's geometry. DecompressAny
// decodes the same stream containers in memory: it must succeed exactly
// when the streaming decoder does, with bit-identical values.
func FuzzDecompressStream(f *testing.F) {
	if stream := fuzzStreamContainer(3); stream != nil {
		f.Add(stream)
		f.Add(stream[:len(stream)/2])         // truncated mid-frame
		f.Add(stream[:7])                     // truncated header
		mut := append([]byte(nil), stream...) // corrupt a chunk CRC region
		mut[len(mut)/3] ^= 0xFF
		f.Add(mut)
	}
	f.Add([]byte{})
	f.Add([]byte{streamfmt.Magic})
	f.Add([]byte{streamfmt.Magic, streamfmt.Version, byte(SZT), 1, 200, 1})
	// Hostile length prefix: header promising one chunk, frame claiming
	// a near-2^31 payload with no data behind it.
	hostile := []byte{streamfmt.Magic, streamfmt.Version, byte(SZT), 1, 8, 2, 0x01}
	hostile = binary.AppendUvarint(hostile, streamfmt.MaxFrameLen-1)
	f.Add(hostile)
	// Hostile chunk count: dims [2^40] at one row per chunk, no frames.
	f.Add([]byte{streamfmt.Magic, streamfmt.Version, byte(SZT), 1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20, 1})
	f.Fuzz(func(t *testing.T, buf []byte) {
		var out bytes.Buffer
		cw := &countingWriter{w: &out}
		st, err := DecompressStreamOpts(bytes.NewReader(buf), cw)
		if IsStreamContainer(buf) {
			// Other magics route DecompressAny to another decoder.
			vals, _, anyErr := DecompressAny(buf)
			if (err == nil) != (anyErr == nil) {
				t.Fatalf("DecompressStreamOpts err = %v, DecompressAny err = %v", err, anyErr)
			}
			if err == nil && !bytes.Equal(out.Bytes(), rawLE(vals)) {
				t.Fatalf("DecompressAny's %d values differ from the streaming decode's %d bytes", len(vals), out.Len())
			}
		}
		if err != nil {
			return
		}
		hr, herr := streamfmt.NewReader(bytes.NewReader(buf))
		if herr != nil {
			t.Fatalf("decoded successfully but header does not re-parse: %v", herr)
		}
		want := int64(grid.Size(hr.Header().Dims)) * 8
		if cw.n != want || st.BytesOut != want {
			t.Fatalf("decoded %d bytes (stats %d), header geometry implies %d", cw.n, st.BytesOut, want)
		}
	})
}

// FuzzOpenStream asserts the seekable open path never panics, never
// allocates past its limits, and that any container it accepts either
// serves its full row range or fails typed — and when the sequential
// streaming decoder accepts the same bytes, the two outputs must agree.
func FuzzOpenStream(f *testing.F) {
	if stream := fuzzStreamContainer(3); stream != nil {
		f.Add(stream)
		f.Add(stream[:len(stream)-3]) // clipped index frame
		crc := append([]byte(nil), stream...)
		crc[len(crc)-2] ^= 0x40 // index CRC flip
		f.Add(crc)
		mid := append([]byte(nil), stream...)
		mid[len(mid)/2] ^= 0x10 // mid-chunk damage: open succeeds, read fails
		f.Add(mid)
	}
	for _, seed := range parityFuzzSeeds() {
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Add([]byte{streamfmt.Magic, streamfmt.Version, byte(SZT), 1, 12, 3})
	f.Fuzz(func(t *testing.T, buf []byte) {
		lim := &DecodeLimits{MaxElements: 1 << 16, MaxChunkBytes: 1 << 20}
		h, err := OpenStream(bytes.NewReader(buf), WithLimits(lim))
		if err != nil {
			return
		}
		dst := make([]float64, h.Rows()*uint64(h.RowStride()))
		rerr := h.ReadRows(dst, 0, h.Rows())
		var full bytes.Buffer
		_, ferr := DecompressStreamOpts(bytes.NewReader(buf), &full, WithLimits(lim))
		if ferr != nil {
			return // chunk-level damage; the sequential path rejected it too
		}
		if rerr != nil {
			t.Fatalf("sequential decode succeeded but full-range ReadRows failed: %v", rerr)
		}
		fb := full.Bytes()
		if len(fb) != len(dst)*8 {
			t.Fatalf("ReadRows returned %d elements, sequential decode %d bytes", len(dst), len(fb))
		}
		for i := range dst {
			if math.Float64bits(dst[i]) != binary.LittleEndian.Uint64(fb[i*8:]) {
				t.Fatalf("element %d: ReadRows %x, sequential %x",
					i, math.Float64bits(dst[i]), binary.LittleEndian.Uint64(fb[i*8:]))
			}
		}
	})
}

// FuzzReadRows steers arbitrary row ranges (clamped into the container
// geometry) at the seekable reader: any outcome must be a typed error or
// a byte-identical match of the sequential decoder's slice.
func FuzzReadRows(f *testing.F) {
	if stream := fuzzStreamContainer(3); stream != nil { // 12×4 rows, 4 chunks
		f.Add(stream, uint64(0), uint64(12))
		f.Add(stream, uint64(2), uint64(4)) // straddles a chunk boundary
		f.Add(stream, uint64(11), uint64(1))
		f.Add(stream, uint64(5), uint64(0))
		mid := append([]byte(nil), stream...)
		mid[len(mid)/2] ^= 0x10 // damage near the middle chunks
		f.Add(mid, uint64(0), uint64(3))
		f.Add(mid, uint64(4), uint64(6))
	}
	f.Add([]byte{}, uint64(0), uint64(0))
	f.Fuzz(func(t *testing.T, buf []byte, start, count uint64) {
		lim := &DecodeLimits{MaxElements: 1 << 16, MaxChunkBytes: 1 << 20}
		h, err := OpenStream(bytes.NewReader(buf), WithLimits(lim))
		if err != nil {
			return
		}
		rows := h.Rows()
		start %= rows + 1 // start == rows is a legal empty tail read
		count %= rows - start + 1
		stride := uint64(h.RowStride())
		dst := make([]float64, count*stride)
		rerr := h.ReadRows(dst, start, count)
		var full bytes.Buffer
		if _, ferr := DecompressStreamOpts(bytes.NewReader(buf), &full, WithLimits(lim)); ferr != nil {
			return // damaged chunks; the range may or may not touch them
		}
		if rerr != nil {
			t.Fatalf("sequential decode succeeded but ReadRows[%d,+%d) failed: %v", start, count, rerr)
		}
		fb := full.Bytes()
		for i := range dst {
			want := binary.LittleEndian.Uint64(fb[(start*stride+uint64(i))*8:])
			if math.Float64bits(dst[i]) != want {
				t.Fatalf("ReadRows[%d,+%d) element %d: %x, sequential decode has %x",
					start, count, i, math.Float64bits(dst[i]), want)
			}
		}
	})
}

// FuzzStreamRoundTrip drives the full streaming pipeline with arbitrary
// bytes reinterpreted as floats and a fuzzed chunking, asserting the
// SZ_T bound (and zero/special preservation) through CompressStreamOpts
// → DecompressStreamOpts.
func FuzzStreamRoundTrip(f *testing.F) {
	f.Add([]byte{3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add(append([]byte{1}, make([]byte, 160)...))
	f.Add(append([]byte{7}, bytes.Repeat([]byte{0x3F, 0xF0, 1, 2, 3, 4, 5, 6}, 20)...))
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 9 {
			return
		}
		chunkRows := int(raw[0])%8 + 1
		body := raw[1:]
		n := len(body) / 8
		if n == 0 || n > 1<<12 {
			return
		}
		data := make([]float64, n)
		for i := range data {
			data[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[i*8:]))
		}
		const rel = 1e-2
		var comp bytes.Buffer
		_, err := CompressStreamOpts(bytes.NewReader(body[:n*8]), &comp, []int{n}, rel, SZT,
			WithWorkers(2), WithChunkRows(chunkRows))
		if err != nil {
			return // e.g. log-range too extreme for the bound: a valid refusal
		}
		var dec bytes.Buffer
		if _, err := DecompressStreamOpts(bytes.NewReader(comp.Bytes()), &dec); err != nil {
			t.Fatalf("own stream failed to decode: %v", err)
		}
		db := dec.Bytes()
		if len(db) != n*8 {
			t.Fatalf("decoded %d bytes, want %d", len(db), n*8)
		}
		for i := range data {
			o := data[i]
			d := math.Float64frombits(binary.LittleEndian.Uint64(db[i*8:]))
			switch {
			case math.IsNaN(o):
				if !math.IsNaN(d) {
					t.Fatalf("NaN lost at %d", i)
				}
			case math.IsInf(o, 0):
				if d != o {
					t.Fatalf("Inf lost at %d", i)
				}
			case o == 0:
				if d != 0 {
					t.Fatalf("zero perturbed at %d", i)
				}
			default:
				if math.Abs(d-o)/math.Abs(o) > rel {
					t.Fatalf("bound violated at %d: %g vs %g", i, d, o)
				}
			}
		}
	})
}

// FuzzCompressRoundTrip drives the full SZ_T pipeline with arbitrary data
// bytes reinterpreted as floats, asserting the bound on every finite
// nonzero value.
func FuzzCompressRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add(make([]byte, 80))
	f.Fuzz(func(t *testing.T, raw []byte) {
		n := len(raw) / 8
		if n == 0 || n > 1<<14 {
			return
		}
		data := make([]float64, n)
		for i := range data {
			data[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
		}
		const rel = 1e-2
		buf, err := Compress(data, []int{n}, rel, SZT, nil)
		if err != nil {
			return // e.g. log-range too extreme for the bound: a valid refusal
		}
		dec, _, err := Decompress(buf)
		if err != nil {
			t.Fatalf("own stream failed to decode: %v", err)
		}
		for i := range data {
			o := data[i]
			switch {
			case math.IsNaN(o):
				if !math.IsNaN(dec[i]) {
					t.Fatalf("NaN lost at %d", i)
				}
			case math.IsInf(o, 0):
				if dec[i] != o {
					t.Fatalf("Inf lost at %d", i)
				}
			case o == 0:
				if dec[i] != 0 {
					t.Fatalf("zero perturbed at %d", i)
				}
			default:
				if math.Abs(dec[i]-o)/math.Abs(o) > rel {
					t.Fatalf("bound violated at %d: %g vs %g", i, dec[i], o)
				}
			}
		}
	})
}

// FuzzStreamSalvage asserts the salvage decoder never panics and keeps
// its books consistent: every chunk is either recovered or reported
// lost, and on success the output length matches the header geometry.
func FuzzStreamSalvage(f *testing.F) {
	if stream := fuzzStreamContainer(2); stream != nil {
		f.Add(stream)
		mid := append([]byte(nil), stream...) // damaged middle chunk
		mid[len(mid)/2] ^= 0x20
		f.Add(mid)
		if rep, err := streamfmt.ScanSalvage(stream, streamfmt.Limits{}); err == nil && rep.IndexOK {
			idx := append([]byte(nil), stream...) // damaged index frame
			idx[rep.Frames[len(rep.Frames)-1].End+2] ^= 0xFF
			f.Add(idx)
		}
		f.Add(stream[:len(stream)*2/3]) // truncated
	}
	for _, seed := range parityFuzzSeeds() {
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Add([]byte{streamfmt.Magic, streamfmt.Version})
	// Hostile chunk count: dims [2^40] at one row per chunk, no frames.
	f.Add([]byte{streamfmt.Magic, streamfmt.Version, byte(SZT), 1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20, 1})
	f.Fuzz(func(t *testing.T, buf []byte) {
		// Under default options only the writer bounds the NaN fill of a
		// huge declared geometry: the capped writer stops it, and no
		// allocation may follow the header's claim.
		_, err := DecompressStreamSalvage(bytes.NewReader(buf), faultio.FailWriter(io.Discard, 64<<10))
		if err != nil && !typedOK(err) {
			t.Fatalf("default options: untyped error %v", err)
		}

		var out bytes.Buffer
		// Salvage honors opt-in DecodeLimits like every decoder; without
		// them a hostile header claiming a huge geometry would make the
		// harness itself buffer unbounded NaN fill.
		lim := &DecodeLimits{MaxElements: 1 << 16, MaxChunkBytes: 1 << 20}
		rep, err := DecompressStreamSalvage(bytes.NewReader(buf), &out, WithLimits(lim))
		if err != nil {
			return
		}
		if rep.Recovered+rep.Lost() != rep.Chunks {
			t.Fatalf("books off: recovered %d + lost %d != chunks %d", rep.Recovered, rep.Lost(), rep.Chunks)
		}
		want := int64(grid.Size(rep.Dims)) * 8
		if rep.BytesOut != want || int64(out.Len()) != want {
			t.Fatalf("emitted %d bytes (stats %d), header geometry implies %d", out.Len(), rep.BytesOut, want)
		}
	})
}

// fuzzArchiveV3 builds a small two-field v3 streaming archive for seed
// corpora; nil on any build error.
func fuzzArchiveV3() []byte {
	var buf bytes.Buffer
	aw, err := NewArchiveStreamWriter(&buf, WithChunkRows(4))
	if err != nil {
		return nil
	}
	data := make([]float64, 48)
	for i := range data {
		data[i] = float64(i%7) + 1
	}
	raw := make([]byte, len(data)*8)
	for i, v := range data {
		binary.LittleEndian.PutUint64(raw[i*8:], math.Float64bits(v))
	}
	if _, err := aw.AddField("a", bytes.NewReader(raw), []int{12, 4}, 0.01, SZT); err != nil {
		return nil
	}
	if _, err := aw.AddField("b", bytes.NewReader(raw), []int{12, 4}, 0.01, SZT); err != nil {
		return nil
	}
	if err := aw.Close(); err != nil {
		return nil
	}
	return buf.Bytes()
}

// FuzzOpenArchiveStream covers the v3 tail-directory parser on both the
// seekable and the in-memory path: whatever the bytes, opening must
// fail typed or yield handles whose full-range reads agree with the
// in-memory Field decode.
func FuzzOpenArchiveStream(f *testing.F) {
	if arch := fuzzArchiveV3(); arch != nil {
		f.Add(arch)
		f.Add(arch[:len(arch)-5]) // clipped trailer
		dirCRC := append([]byte(nil), arch...)
		dirCRC[len(dirCRC)-16] ^= 0x40 // directory CRC flip
		f.Add(dirCRC)
		blob := append([]byte(nil), arch...)
		blob[len(blob)/3] ^= 0x10 // blob damage: open succeeds, read fails
		f.Add(blob)
		short := append([]byte(nil), arch...)
		short[len(short)-1] ^= 0x01 // dirLen low-byte nudge
		f.Add(short)
	}
	f.Add([]byte{})
	f.Add([]byte{archiveMagicV3, archiveV3Ver})
	f.Fuzz(func(t *testing.T, buf []byte) {
		lim := &DecodeLimits{MaxElements: 1 << 16, MaxChunkBytes: 1 << 20, MaxFields: 64}
		as, err := OpenArchiveStream(bytes.NewReader(buf), WithLimits(lim))
		if err != nil {
			return
		}
		ar, aerr := OpenArchive(buf, WithLimits(lim))
		for _, name := range as.Fields() {
			h, err := as.Field(name)
			if err != nil {
				continue
			}
			dst := make([]float64, h.Rows()*uint64(h.RowStride()))
			if err := h.ReadRows(dst, 0, h.Rows()); err != nil {
				continue
			}
			// A full-range seekable read that succeeded implies per-chunk
			// CRCs held; the in-memory decode of the same field (when the
			// whole-area CRC also held) must agree bit for bit.
			if aerr != nil {
				continue
			}
			want, _, ferr := ar.Field(name)
			if ferr != nil {
				continue // blob decodes under stream CRCs but not the in-memory path
			}
			if len(want) != len(dst) {
				t.Fatalf("field %q: seekable %d elements, in-memory %d", name, len(dst), len(want))
			}
			for i := range dst {
				if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
					t.Fatalf("field %q element %d: seekable %x, in-memory %x",
						name, i, math.Float64bits(dst[i]), math.Float64bits(want[i]))
				}
			}
		}
	})
}
