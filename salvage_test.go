package repro

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"

	"repro/internal/streamfmt"
	"repro/internal/testutil"
)

// salvageFixture builds a clean multi-chunk stream container plus its
// clean decoded bytes and per-frame extents.
func salvageFixture(t *testing.T) (stream, clean []byte, frames []streamfmt.FrameInfo, dims []int) {
	t.Helper()
	dims = []int{12, 4}
	data := make([]float64, 48)
	for i := range data {
		data[i] = 40*math.Cos(float64(i)/3) + 90
	}
	var sb bytes.Buffer
	if _, err := CompressStreamOpts(bytes.NewReader(rawLE(data)), &sb, dims, 1e-2, SZT,
		WithWorkers(2), WithChunkRows(2)); err != nil {
		t.Fatal(err)
	}
	stream = sb.Bytes()
	clean = rawLEOfDecoded(t, stream)
	rep, err := streamfmt.ScanSalvage(stream, streamfmt.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.IndexOK || len(rep.Frames) != 6 {
		t.Fatalf("fixture: IndexOK=%v frames=%d, want intact index and 6 frames", rep.IndexOK, len(rep.Frames))
	}
	return stream, clean, rep.Frames, dims
}

// salvage runs DecompressStreamSalvage over buf and returns report+output.
func salvage(t *testing.T, buf []byte) (*SalvageReport, []byte) {
	t.Helper()
	var out bytes.Buffer
	rep, err := DecompressStreamSalvage(bytes.NewReader(buf), &out)
	if err != nil {
		t.Fatalf("salvage errored on frame damage: %v", err)
	}
	return rep, out.Bytes()
}

// checkRegions verifies the salvage output: recovered rows byte-equal
// the clean decode, lost rows are all NaN.
func checkRegions(t *testing.T, rep *SalvageReport, got, clean []byte, rowStride int) {
	t.Helper()
	if len(got) != len(clean) {
		t.Fatalf("salvage wrote %d bytes, clean decode is %d", len(got), len(clean))
	}
	lost := make(map[int]bool)
	for _, rr := range rep.LostRows {
		for r := rr.Lo; r < rr.Hi; r++ {
			lost[r] = true
		}
	}
	rows := len(clean) / (rowStride * 8)
	vals := fromLE(got)
	cleanVals := fromLE(clean)
	for r := 0; r < rows; r++ {
		for c := 0; c < rowStride; c++ {
			i := r*rowStride + c
			if lost[r] {
				if !math.IsNaN(vals[i]) {
					t.Fatalf("row %d is reported lost but element %d = %v, want NaN", r, i, vals[i])
				}
			} else if vals[i] != cleanVals[i] {
				t.Fatalf("recovered row %d differs from clean decode at element %d: %v != %v", r, i, vals[i], cleanVals[i])
			}
		}
	}
}

func TestSalvageCleanStream(t *testing.T) {
	defer testutil.NoLeak(t)()
	stream, clean, _, _ := salvageFixture(t)
	rep, got := salvage(t, stream)
	if rep.Recovered != rep.Chunks || rep.Lost() != 0 || !rep.IndexOK || rep.Truncated {
		t.Fatalf("clean stream: %+v", rep)
	}
	if !bytes.Equal(got, clean) {
		t.Fatal("clean salvage output differs from DecompressStreamOpts")
	}
}

// TestSalvageOneCorruptedChunk is the acceptance case: damage exactly
// one chunk's payload; every other chunk is recovered and the report
// names the exact lost chunk, rows, and byte range.
func TestSalvageOneCorruptedChunk(t *testing.T) {
	defer testutil.NoLeak(t)()
	stream, clean, frames, _ := salvageFixture(t)
	const victim = 2
	mut := append([]byte(nil), stream...)
	mut[frames[victim].End-1] ^= 0xFF // last payload byte: CRC must catch it

	rep, got := salvage(t, mut)
	if rep.Chunks != 6 || rep.Recovered != 5 {
		t.Fatalf("recovered %d of %d chunks, want 5 of 6", rep.Recovered, rep.Chunks)
	}
	if len(rep.LostChunks) != 1 || rep.LostChunks[0] != victim {
		t.Fatalf("LostChunks = %v, want [%d]", rep.LostChunks, victim)
	}
	if len(rep.LostRows) != 1 || rep.LostRows[0] != (RowRange{4, 6}) {
		t.Fatalf("LostRows = %v, want [{4 6}] (chunk %d covers rows 4-5)", rep.LostRows, victim)
	}
	if len(rep.LostBytes) != 1 ||
		rep.LostBytes[0].Lo != frames[victim].Offset || rep.LostBytes[0].Hi != frames[victim].End {
		t.Fatalf("LostBytes = %v, want [{%d %d}]", rep.LostBytes, frames[victim].Offset, frames[victim].End)
	}
	if !rep.IndexOK || rep.Truncated {
		t.Fatalf("IndexOK=%v Truncated=%v, want intact index, no truncation", rep.IndexOK, rep.Truncated)
	}
	checkRegions(t, rep, got, clean, 4)
}

// TestSalvageDamagedLengthPrefix destroys a chunk's frame header; with
// the index intact, the successors must not desynchronize.
func TestSalvageDamagedLengthPrefix(t *testing.T) {
	defer testutil.NoLeak(t)()
	stream, clean, frames, _ := salvageFixture(t)
	const victim = 1
	mut := append([]byte(nil), stream...)
	mut[frames[victim].Offset] = 0x7E   // frame tag destroyed
	mut[frames[victim].Offset+1] ^= 0x3 // length prefix garbled

	rep, got := salvage(t, mut)
	if rep.Recovered != 5 || len(rep.LostChunks) != 1 || rep.LostChunks[0] != victim {
		t.Fatalf("recovered=%d lost=%v, want 5 recovered, chunk %d lost", rep.Recovered, rep.LostChunks, victim)
	}
	checkRegions(t, rep, got, clean, 4)
}

// TestSalvageDamagedIndex corrupts the sealing index frame: the forward
// scan must still recover every chunk from the length prefixes alone.
func TestSalvageDamagedIndex(t *testing.T) {
	defer testutil.NoLeak(t)()
	stream, clean, frames, _ := salvageFixture(t)
	mut := append([]byte(nil), stream...)
	idxStart := frames[len(frames)-1].End
	mut[idxStart+2] ^= 0xFF

	rep, got := salvage(t, mut)
	if rep.IndexOK {
		t.Fatal("index was corrupted but reported intact")
	}
	if rep.Recovered != rep.Chunks || rep.Lost() != 0 {
		t.Fatalf("recovered %d of %d with lost=%v; forward scan should recover all chunks",
			rep.Recovered, rep.Chunks, rep.LostChunks)
	}
	if !bytes.Equal(got, clean) {
		t.Fatal("output differs from clean decode")
	}
}

// TestSalvageTruncated cuts the container mid-chunk: everything before
// the cut is recovered, everything after is reported lost.
func TestSalvageTruncated(t *testing.T) {
	defer testutil.NoLeak(t)()
	stream, clean, frames, _ := salvageFixture(t)
	cut := frames[4].Offset + 3 // inside chunk 4's frame header
	rep, got := salvage(t, stream[:cut])
	if !rep.Truncated {
		t.Fatal("truncation not reported")
	}
	if rep.Recovered != 4 {
		t.Fatalf("recovered %d chunks, want the 4 before the cut", rep.Recovered)
	}
	if len(rep.LostChunks) != 2 || rep.LostChunks[0] != 4 || rep.LostChunks[1] != 5 {
		t.Fatalf("LostChunks = %v, want [4 5]", rep.LostChunks)
	}
	if len(rep.LostRows) != 1 || rep.LostRows[0] != (RowRange{8, 12}) {
		t.Fatalf("LostRows = %v, want [{8 12}]", rep.LostRows)
	}
	checkRegions(t, rep, got, clean, 4)
}

// TestSalvageDoubleDamageWithIndex loses two non-adjacent chunks; both
// are reported and everything else survives.
func TestSalvageDoubleDamageWithIndex(t *testing.T) {
	defer testutil.NoLeak(t)()
	stream, clean, frames, _ := salvageFixture(t)
	mut := append([]byte(nil), stream...)
	mut[frames[0].End-1] ^= 0x01
	mut[frames[3].End-1] ^= 0x01
	rep, got := salvage(t, mut)
	if rep.Recovered != 4 || len(rep.LostChunks) != 2 ||
		rep.LostChunks[0] != 0 || rep.LostChunks[1] != 3 {
		t.Fatalf("recovered=%d lost=%v, want 4 recovered, chunks 0 and 3 lost", rep.Recovered, rep.LostChunks)
	}
	if len(rep.LostBytes) != 2 {
		t.Fatalf("LostBytes = %v, want two separate damaged regions", rep.LostBytes)
	}
	checkRegions(t, rep, got, clean, 4)
}

// TestSalvageChunkShapeMismatch pins that every chunked reader checks a
// decoded chunk's full shape against the header, not just its row count
// and element count: a chunk with the right number of elements but the
// wrong trailing dims is damage, in salvage and in the legacy 0xC6
// reader as much as in the strict stream readers.
func TestSalvageChunkShapeMismatch(t *testing.T) {
	defer testutil.NoLeak(t)()
	data := make([]float64, 48)
	for i := range data {
		data[i] = float64(i + 1)
	}

	// (a) A stream container whose header says [4,6] in chunks of two
	// rows, but whose chunks are [2,2,3] streams: 12 elements each, the
	// element count the header expects, in the wrong shape.
	var sb bytes.Buffer
	sw, err := streamfmt.NewWriter(&sb, streamfmt.Header{Algo: byte(SZT), Dims: []int{4, 6}, ChunkRows: 2})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 2; c++ {
		payload, err := Compress(data[c*12:(c+1)*12], []int{2, 2, 3}, 1e-2, SZT, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.WriteChunk(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Finish(); err != nil {
		t.Fatal(err)
	}
	buf := sb.Bytes()
	if _, err := DecompressStreamOpts(bytes.NewReader(buf), io.Discard); !errors.Is(err, ErrCorrupted) {
		t.Errorf("DecompressStreamOpts: err = %v, want ErrCorrupted", err)
	}
	h, err := OpenStream(bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.ReadRows(make([]float64, 24), 0, 4); !errors.Is(err, ErrCorrupted) {
		t.Errorf("ReadRows: err = %v, want ErrCorrupted", err)
	}
	rep, out := salvage(t, buf)
	if rep.Recovered != 0 || rep.Lost() != 2 {
		t.Errorf("salvage: Recovered=%d Lost=%d, want both chunks lost", rep.Recovered, rep.Lost())
	}
	for i, v := range fromLE(out) {
		if !math.IsNaN(v) {
			t.Errorf("salvage output element %d = %v, want NaN fill", i, v)
			break
		}
	}

	// (b) A legacy 0xC6 container over [4,3,4] whose header dims are
	// patched to [4,4,3]: same rank, rows and stride, other trailing dims.
	par, err := buildParallelV1(data, []int{4, 3, 4}, 1e-2, SZT, 2)
	if err != nil {
		t.Fatal(err)
	}
	// magic, algo, rank, then one uvarint byte per dim.
	if par[3] != 4 || par[4] != 3 || par[5] != 4 {
		t.Fatalf("unexpected 0xC6 header % x", par[:6])
	}
	par[4], par[5] = 4, 3
	if dec, dims, err := DecompressAny(par); !errors.Is(err, ErrCorrupted) {
		t.Errorf("0xC6 with patched dims: got dims %v (%d elements), err = %v; want ErrCorrupted", dims, len(dec), err)
	}
}
