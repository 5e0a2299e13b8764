package repro

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/testutil"
)

// rawLE32 serializes a field in the raw little-endian float32 layout
// the stream pipeline reads and writes under WithFloat32.
func rawLE32(data []float32) []byte {
	raw := make([]byte, len(data)*4)
	for i, v := range data {
		binary.LittleEndian.PutUint32(raw[i*4:], math.Float32bits(v))
	}
	return raw
}

func fromLE32(raw []byte) []float32 {
	out := make([]float32, len(raw)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[i*4:]))
	}
	return out
}

func widen32(data []float32) []float64 {
	out := make([]float64, len(data))
	for i, v := range data {
		out[i] = float64(v)
	}
	return out
}

// TestStream32RoundTrip pushes float32 fields through CompressStreamOpts
// with WithFloat32 and back through both decode widths: float32 out (the
// mirror path) and float64 out (proving the container is the ordinary
// 0xC8 format). The point-wise relative bound holds on
// the widened values; the float32 writer adds at most one 2⁻²⁴ rounding
// step on top.
func TestStream32RoundTrip(t *testing.T) {
	defer testutil.NoLeak(t)()
	fields := []struct {
		name string
		dims []int
	}{
		{"1d", []int{500}},
		{"2d", []int{20, 30}},
	}
	const rel = 1e-3
	// rel plus the float64→float32 narrowing step (and slack for the
	// compounding), still far above float32's 2⁻²⁴ ≈ 6e-8 resolution.
	const rel32 = rel + 1e-6
	for _, fc := range fields {
		n := 1
		for _, d := range fc.dims {
			n *= d
		}
		data := make([]float32, n)
		for i := range data {
			data[i] = float32(40*math.Sin(float64(i)/7) + 60)
		}
		raw := rawLE32(data)
		orig := widen32(data)
		for _, algo := range RelativeAlgorithms() {
			var comp bytes.Buffer
			st, err := CompressStreamOpts(bytes.NewReader(raw), &comp, fc.dims, rel, algo,
				WithWorkers(2), WithChunkRows((fc.dims[0]+2)/3), WithFloat32())
			if err != nil {
				t.Fatalf("%s %v: compress32: %v", fc.name, algo, err)
			}
			if st.BytesIn != int64(len(raw)) {
				t.Errorf("%s %v: BytesIn %d want %d", fc.name, algo, st.BytesIn, len(raw))
			}

			var dec32 bytes.Buffer
			dst, err := DecompressStreamOpts(bytes.NewReader(comp.Bytes()), &dec32, WithFloat32())
			if err != nil {
				t.Fatalf("%s %v: decompress32: %v", fc.name, algo, err)
			}
			if dst.Chunks != st.Chunks {
				t.Errorf("%s %v: decoded %d chunks, encoded %d", fc.name, algo, dst.Chunks, st.Chunks)
			}
			if dec32.Len() != len(raw) {
				t.Fatalf("%s %v: float32 output %d bytes, want %d", fc.name, algo, dec32.Len(), len(raw))
			}
			testutil.CheckPWR(t, orig, widen32(fromLE32(dec32.Bytes())), rel32)

			// The same container must decode on the float64 path, where
			// the stream's own bound applies with no narrowing step.
			var dec64 bytes.Buffer
			if _, err := DecompressStreamOpts(bytes.NewReader(comp.Bytes()), &dec64); err != nil {
				t.Fatalf("%s %v: decompress (float64 path): %v", fc.name, algo, err)
			}
			testutil.CheckPWR(t, orig, fromLE(dec64.Bytes()), rel)
		}
	}
}

// TestStream32MatchesWidenedStream verifies the mirroring claim
// bit-exactly: float32 input under WithFloat32 produces the same
// container bytes as float64 input of the pre-widened field under the
// same chunking, because widening float32→float64 is exact.
func TestStream32MatchesWidenedStream(t *testing.T) {
	defer testutil.NoLeak(t)()
	dims := []int{18, 11}
	data := make([]float32, 18*11)
	for i := range data {
		data[i] = float32(math.Exp(float64(i%37)/11) - 3)
	}
	opts := []StreamOption{WithWorkers(1), WithChunkRows(5)}
	const rel = 2e-4
	for _, algo := range RelativeAlgorithms() {
		var from32, from64 bytes.Buffer
		if _, err := CompressStreamOpts(bytes.NewReader(rawLE32(data)), &from32, dims, rel, algo,
			append(opts, WithFloat32())...); err != nil {
			t.Fatalf("%v: compress32: %v", algo, err)
		}
		if _, err := CompressStreamOpts(bytes.NewReader(rawLE(widen32(data))), &from64, dims, rel, algo, opts...); err != nil {
			t.Fatalf("%v: compress: %v", algo, err)
		}
		if !bytes.Equal(from32.Bytes(), from64.Bytes()) {
			t.Errorf("%v: float32 container differs from the widened float64 container", algo)
		}
	}
}

// TestStream32ShortInput checks the float32 reader's element accounting:
// a truncated source must error out, not hang or misframe.
func TestStream32ShortInput(t *testing.T) {
	defer testutil.NoLeak(t)()
	dims := []int{64}
	data := make([]float32, 64)
	for i := range data {
		data[i] = float32(i + 1)
	}
	raw := rawLE32(data)
	var comp bytes.Buffer
	_, err := CompressStreamOpts(bytes.NewReader(raw[:len(raw)-5]), &comp, dims, 1e-3, SZT, WithFloat32())
	if err == nil {
		t.Fatal("WithFloat32 compress accepted a truncated float32 source")
	}
}
