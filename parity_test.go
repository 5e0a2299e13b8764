package repro

// End-to-end tests for the self-healing container layer: parity
// round-trip compatibility, salvage repair, seekable-path repair with
// exact stats accounting, and verify-after-encode.

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/streamfmt"
	"repro/internal/testutil"
)

// parityFixture builds a clean parity container (dims {10,4}, ChunkRows
// 2, K=2 → 5 chunks in groups {0,1},{2,3},{4}) plus its clean decoded
// bytes and per-frame extents.
func parityFixture(t *testing.T) (stream, clean []byte, frames, parity []streamfmt.FrameInfo, dims []int) {
	t.Helper()
	dims = []int{10, 4}
	data := make([]float64, 40)
	for i := range data {
		data[i] = 35*math.Sin(float64(i)/4) + 80
	}
	var sb bytes.Buffer
	st, err := CompressStreamOpts(bytes.NewReader(rawLE(data)), &sb, dims, 1e-2, SZT,
		WithWorkers(2), WithChunkRows(2), WithParity(2))
	if err != nil {
		t.Fatal(err)
	}
	if st.ParityFrames != 3 {
		t.Fatalf("encode emitted %d parity frames, want 3", st.ParityFrames)
	}
	stream = sb.Bytes()
	clean = rawLEOfDecoded(t, stream)
	rep, err := streamfmt.ScanSalvage(stream, streamfmt.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.IndexOK || len(rep.Frames) != 5 || len(rep.Parity) != 3 {
		t.Fatalf("fixture: IndexOK=%v frames=%d parity=%d", rep.IndexOK, len(rep.Frames), len(rep.Parity))
	}
	return stream, clean, rep.Frames, rep.Parity, dims
}

// TestStreamParityRoundTrip proves the parity layer is transparent to
// the linear decode path and costs exactly the parity frames in size.
func TestStreamParityRoundTrip(t *testing.T) {
	defer testutil.NoLeak(t)()
	stream, clean, _, _, _ := parityFixture(t)

	var out bytes.Buffer
	st, err := DecompressStreamOpts(bytes.NewReader(stream), &out)
	if err != nil {
		t.Fatalf("DecompressStreamOpts over parity container: %v", err)
	}
	if !bytes.Equal(out.Bytes(), clean) {
		t.Fatal("parity container decodes differently")
	}
	if st.ParityFrames != 3 {
		t.Fatalf("decode stats report %d parity frames, want 3", st.ParityFrames)
	}
	if !IsStreamContainer(stream) {
		t.Fatal("IsStreamContainer rejects a v2 container")
	}
	if data, _, err := DecompressAny(stream); err != nil || len(data) != 40 {
		t.Fatalf("DecompressAny over parity container: %d elements, %v", len(data), err)
	}
}

// TestStreamParityOptionValidated rejects a ParityK outside [0, MaxParityK].
func TestStreamParityOptionValidated(t *testing.T) {
	data := rawLE(make([]float64, 8))
	for _, k := range []int{-1, streamfmt.MaxParityK + 1} {
		var sb bytes.Buffer
		_, err := CompressStreamOpts(bytes.NewReader(data), &sb, []int{8}, 1e-2, SZT,
			WithParity(k))
		if err == nil {
			t.Fatalf("ParityK=%d accepted", k)
		}
	}
}

// TestStreamParitySalvageRepair damages each chunk in turn: salvage must
// reconstruct it byte-identically (no NaN rows anywhere) and account for
// it as repaired, not lost.
func TestStreamParitySalvageRepair(t *testing.T) {
	defer testutil.NoLeak(t)()
	stream, clean, frames, _, _ := parityFixture(t)
	for i := range frames {
		mut := append([]byte(nil), stream...)
		mut[frames[i].End-1] ^= 0xA5
		var out bytes.Buffer
		rep, err := DecompressStreamSalvage(bytes.NewReader(mut), &out)
		if err != nil {
			t.Fatalf("chunk %d: salvage errored: %v", i, err)
		}
		if rep.ParityK != 2 {
			t.Fatalf("chunk %d: report ParityK = %d", i, rep.ParityK)
		}
		if rep.Lost() != 0 || rep.Recovered != rep.Chunks {
			t.Fatalf("chunk %d: lost=%v recovered=%d of %d, want full repair",
				i, rep.LostChunks, rep.Recovered, rep.Chunks)
		}
		if rep.Repaired() != 1 || rep.RepairedChunks[0] != i {
			t.Fatalf("chunk %d: RepairedChunks = %v, want [%d]", i, rep.RepairedChunks, i)
		}
		if len(rep.LostRows) != 0 {
			t.Fatalf("chunk %d: LostRows = %v after a successful repair", i, rep.LostRows)
		}
		if !bytes.Equal(out.Bytes(), clean) {
			t.Fatalf("chunk %d: repaired output differs from clean decode", i)
		}
	}
}

// TestStreamParitySalvageMultiLoss loses two chunks of one group: repair
// is impossible there and must degrade to NaN-filled skip-and-report,
// while a single loss in another group still repairs.
func TestStreamParitySalvageMultiLoss(t *testing.T) {
	defer testutil.NoLeak(t)()
	stream, clean, frames, _, _ := parityFixture(t)
	mut := append([]byte(nil), stream...)
	mut[frames[2].End-1] ^= 0xA5 // group 1
	mut[frames[3].End-1] ^= 0xA5 // group 1: second loss
	mut[frames[4].End-1] ^= 0xA5 // group 2: sole loss, repairable
	var out bytes.Buffer
	rep, err := DecompressStreamSalvage(bytes.NewReader(mut), &out)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.LostChunks) != 2 || rep.LostChunks[0] != 2 || rep.LostChunks[1] != 3 {
		t.Fatalf("LostChunks = %v, want [2 3]", rep.LostChunks)
	}
	if rep.Repaired() != 1 || rep.RepairedChunks[0] != 4 {
		t.Fatalf("RepairedChunks = %v, want [4]", rep.RepairedChunks)
	}
	if rep.Recovered+rep.Lost() != rep.Chunks {
		t.Fatalf("books off: %d + %d != %d", rep.Recovered, rep.Lost(), rep.Chunks)
	}
	if len(rep.LostRows) != 1 || rep.LostRows[0] != (RowRange{4, 8}) {
		t.Fatalf("LostRows = %v, want [{4 8}] (chunks 2-3 cover rows 4-7)", rep.LostRows)
	}
	checkRegions(t, rep, out.Bytes(), clean, 4)
}

// TestStreamParitySalvageDamagedParity damages a parity frame along with
// a chunk of its group: the chunk stays lost (clean degrade), the report
// names the damaged group, and a parity-frame flip alone costs nothing.
func TestStreamParitySalvageDamagedParity(t *testing.T) {
	defer testutil.NoLeak(t)()
	stream, clean, frames, parity, _ := parityFixture(t)

	mut := append([]byte(nil), stream...)
	mut[frames[0].End-1] ^= 0xA5
	mut[parity[0].End-1] ^= 0xA5
	var out bytes.Buffer
	rep, err := DecompressStreamSalvage(bytes.NewReader(mut), &out)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.LostChunks) != 1 || rep.LostChunks[0] != 0 || rep.Repaired() != 0 {
		t.Fatalf("lost=%v repaired=%v, want chunk 0 lost, nothing repaired", rep.LostChunks, rep.RepairedChunks)
	}
	if len(rep.DamagedParity) != 1 || rep.DamagedParity[0] != 0 {
		t.Fatalf("DamagedParity = %v, want [0]", rep.DamagedParity)
	}
	checkRegions(t, rep, out.Bytes(), clean, 4)

	// Parity damage alone: all data chunks intact, nothing lost.
	mut2 := append([]byte(nil), stream...)
	mut2[parity[1].End-1] ^= 0xA5
	var out2 bytes.Buffer
	rep2, err := DecompressStreamSalvage(bytes.NewReader(mut2), &out2)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Lost() != 0 || !bytes.Equal(out2.Bytes(), clean) {
		t.Fatalf("parity-only damage lost data: %v", rep2.LostChunks)
	}
	if len(rep2.DamagedParity) != 1 || rep2.DamagedParity[0] != 1 {
		t.Fatalf("DamagedParity = %v, want [1]", rep2.DamagedParity)
	}
}

// TestStreamParitySalvageTruncatedGroup cuts a parity container inside
// the last chunk of group 0. The forward scan delimits that chunk past
// the end of the container and loses everything after it, so group 0's
// parity frame, cut away with the rest, is reported damaged like those
// of the later groups: DamagedParity names every group whose parity
// frame the scan could not verify.
func TestStreamParitySalvageTruncatedGroup(t *testing.T) {
	defer testutil.NoLeak(t)()
	stream, clean, frames, _, _ := parityFixture(t)
	var out bytes.Buffer
	rep, err := DecompressStreamSalvage(bytes.NewReader(stream[:frames[1].End-1]), &out)
	if err != nil {
		t.Fatal(err)
	}
	if rep.IndexOK || !rep.Truncated {
		t.Fatalf("IndexOK=%v Truncated=%v, want a truncated container without its index", rep.IndexOK, rep.Truncated)
	}
	if want := []int{1, 2, 3, 4}; !slices.Equal(rep.LostChunks, want) {
		t.Fatalf("LostChunks = %v, want %v", rep.LostChunks, want)
	}
	if want := []int{0, 1, 2}; !slices.Equal(rep.DamagedParity, want) {
		t.Fatalf("DamagedParity = %v, want %v", rep.DamagedParity, want)
	}
	checkRegions(t, rep, out.Bytes(), clean, 4)
}

// TestStreamParitySalvageLostBytesInContainer cuts the container one byte
// short of each frame's end, so the frame's length prefix survives and the
// scan delimits it past the cut: every reported damaged range must still
// end at or before the bytes actually read.
func TestStreamParitySalvageLostBytesInContainer(t *testing.T) {
	defer testutil.NoLeak(t)()
	stream, _, frames, _, _ := parityFixture(t)
	for _, f := range frames {
		cut := f.End - 1
		var out bytes.Buffer
		rep, err := DecompressStreamSalvage(bytes.NewReader(stream[:cut]), &out)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if rep.BytesIn != cut || len(rep.LostBytes) == 0 {
			t.Fatalf("cut at %d: BytesIn %d, LostBytes %v", cut, rep.BytesIn, rep.LostBytes)
		}
		for _, r := range rep.LostBytes {
			if r.Lo > r.Hi || r.Hi > rep.BytesIn {
				t.Fatalf("cut at %d: LostBytes %v runs past the %d bytes read", cut, rep.LostBytes, rep.BytesIn)
			}
		}
	}
}

// TestStreamParityReadRowsRepair damages each chunk and reads the full
// range through the seekable path: the read must succeed byte-identically
// via repair, with the repair accounted once and parity fetches not
// double-counted.
func TestStreamParityReadRowsRepair(t *testing.T) {
	defer testutil.NoLeak(t)()
	stream, clean, frames, _, dims := parityFixture(t)
	cleanVals := fromLE(clean)
	ix, err := streamfmt.OpenIndex(bytes.NewReader(stream), streamfmt.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range frames {
		mut := append([]byte(nil), stream...)
		mut[frames[i].End-1] ^= 0xA5
		h, err := OpenStream(bytes.NewReader(mut))
		if err != nil {
			t.Fatalf("chunk %d: OpenStream: %v", i, err)
		}
		dst := make([]float64, len(cleanVals))
		if err := h.ReadRows(dst, 0, uint64(dims[0])); err != nil {
			t.Fatalf("chunk %d: ReadRows did not repair: %v", i, err)
		}
		for j := range dst {
			if math.Float64bits(dst[j]) != math.Float64bits(cleanVals[j]) {
				t.Fatalf("chunk %d: repaired read differs at element %d", i, j)
			}
		}
		st := h.Stats()
		if st.RepairedChunks != 1 {
			t.Fatalf("chunk %d: stats.RepairedChunks = %d, want 1", i, st.RepairedChunks)
		}
		if st.Chunks != len(frames) {
			t.Fatalf("chunk %d: stats.Chunks = %d, want %d (each chunk decoded once)", i, st.Chunks, len(frames))
		}
		// BytesIn must be the sequential extent plus exactly the repair
		// fetches: group parity frame + surviving siblings, each once.
		g := i / 2
		lo, hi := ix.Hdr.GroupRange(g)
		pOff, pEnd := ix.ParityExtent(g)
		wantRepair := pEnd - pOff
		for s := lo; s < hi; s++ {
			if s == i {
				continue
			}
			off, end := ix.FrameExtent(s)
			wantRepair += end - off
		}
		if want := ix.ExtentBytes(0, len(frames)) + wantRepair; st.BytesIn != want {
			t.Fatalf("chunk %d: stats.BytesIn = %d, want %d (extent + repair fetches, no double count)",
				i, st.BytesIn, want)
		}
	}
}

// TestStreamParityReadRowsStats pins the clean-path accounting over a
// parity container: interior parity frames are skipped (counted in
// ParityFrames and BytesIn via the extent) and a range that crosses no
// parity frame counts none.
func TestStreamParityReadRowsStats(t *testing.T) {
	defer testutil.NoLeak(t)()
	stream, clean, frames, _, dims := parityFixture(t)
	cleanVals := fromLE(clean)
	ix, err := streamfmt.OpenIndex(bytes.NewReader(stream), streamfmt.Limits{})
	if err != nil {
		t.Fatal(err)
	}

	h, err := OpenStream(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, len(cleanVals))
	if err := h.ReadRows(dst, 0, uint64(dims[0])); err != nil {
		t.Fatal(err)
	}
	st := h.Stats()
	if st.RepairedChunks != 0 {
		t.Fatalf("clean read repaired %d chunks", st.RepairedChunks)
	}
	if st.ParityFrames != 2 {
		t.Fatalf("stats.ParityFrames = %d, want the 2 interior parity frames", st.ParityFrames)
	}
	if want := ix.ExtentBytes(0, len(frames)); st.BytesIn != want {
		t.Fatalf("stats.BytesIn = %d, want extent %d (trailing parity frame never fetched)", st.BytesIn, want)
	}

	// Rows [0,2) live in chunk 0 alone: no parity frame in the span.
	h2, err := OpenStream(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if err := h2.ReadRows(dst[:2*4], 0, 2); err != nil {
		t.Fatal(err)
	}
	st2 := h2.Stats()
	if st2.ParityFrames != 0 || st2.Chunks != 1 {
		t.Fatalf("single-chunk read: ParityFrames=%d Chunks=%d", st2.ParityFrames, st2.Chunks)
	}
	if want := ix.ExtentBytes(0, 1); st2.BytesIn != want {
		t.Fatalf("single-chunk read: BytesIn = %d, want %d", st2.BytesIn, want)
	}
}

// TestStreamParityReadRowsMultiLoss proves the seekable path fails typed
// when a group lost two chunks — repair must not fabricate data.
func TestStreamParityReadRowsMultiLoss(t *testing.T) {
	defer testutil.NoLeak(t)()
	stream, _, frames, _, dims := parityFixture(t)
	mut := append([]byte(nil), stream...)
	mut[frames[0].End-1] ^= 0xA5
	mut[frames[1].End-1] ^= 0xA5
	h, err := OpenStream(bytes.NewReader(mut))
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, dims[0]*dims[1])
	err = h.ReadRows(dst, 0, uint64(dims[0]))
	if !errors.Is(err, ErrCorrupted) {
		t.Fatalf("double loss: err = %v, want ErrCorrupted", err)
	}
}

// TestVerifyOnWrite exercises verify-after-encode end to end (clean
// pass with exact accounting) and the negative path at the unit level:
// a payload proven against the wrong source must fail typed.
func TestVerifyOnWrite(t *testing.T) {
	defer testutil.NoLeak(t)()
	dims := []int{10, 4}
	data := make([]float64, 40)
	for i := range data {
		data[i] = 35*math.Sin(float64(i)/4) + 80
	}
	for _, algo := range RelativeAlgorithms() {
		var sb bytes.Buffer
		st, err := CompressStreamOpts(bytes.NewReader(rawLE(data)), &sb, dims, 1e-2, algo,
			WithWorkers(2), WithChunkRows(2), WithVerifyOnWrite())
		if err != nil {
			t.Fatalf("%v: VerifyOnWrite compress: %v", algo, err)
		}
		if st.VerifiedChunks != st.Chunks || st.Chunks != 5 {
			t.Fatalf("%v: verified %d of %d chunks", algo, st.VerifiedChunks, st.Chunks)
		}
		if _, err := DecompressStreamOpts(bytes.NewReader(sb.Bytes()), bytes.NewBuffer(nil)); err != nil {
			t.Fatalf("%v: verified container does not decode: %v", algo, err)
		}
	}

	// Negative: a chunk compressed from different data must not verify.
	sub := data[:8]
	subDims := []int{2, 4}
	payload, err := Compress(sub, subDims, 1e-2, SZT, nil)
	if err != nil {
		t.Fatal(err)
	}
	other := make([]float64, 8)
	for i := range other {
		other[i] = -1000 - float64(i)
	}
	if err := verifyChunk(payload, other, subDims, 1e-2, SZT); !errors.Is(err, ErrVerifyFailed) {
		t.Fatalf("wrong-source verify: err = %v, want ErrVerifyFailed", err)
	}
	if err := verifyChunk(payload[:len(payload)-1], sub, subDims, 1e-2, SZT); !errors.Is(err, ErrVerifyFailed) {
		t.Fatalf("truncated-payload verify: err = %v, want ErrVerifyFailed", err)
	}
	if err := verifyChunk(payload, sub, subDims, 1e-2, SZT); err != nil {
		t.Fatalf("clean verify failed: %v", err)
	}
	// Specials survive verification: NaN, ±Inf, zero.
	spec := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, 1, -2, 3, -4}
	sp, err := Compress(spec, []int{8}, 1e-2, SZT, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyChunk(sp, spec, []int{8}, 1e-2, SZT); err != nil {
		t.Fatalf("specials verify failed: %v", err)
	}
}

// TestParallelVerify wires WithVerifyOnWrite through the in-memory
// parallel path.
func TestParallelVerify(t *testing.T) {
	defer testutil.NoLeak(t)()
	data := make([]float64, 96)
	for i := range data {
		data[i] = 20*math.Cos(float64(i)/7) + 50
	}
	buf, err := CompressParallelOpts(data, []int{12, 8}, 1e-2, SZT, WithChunkRows(4), WithVerifyOnWrite())
	if err != nil {
		t.Fatalf("CompressParallelOpts with WithVerifyOnWrite: %v", err)
	}
	dec, _, err := DecompressAny(buf, WithWorkers(2))
	if err != nil || len(dec) != len(data) {
		t.Fatalf("verified parallel stream decode: %d elements, %v", len(dec), err)
	}
}
