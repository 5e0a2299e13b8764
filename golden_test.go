package repro

// Golden-stream regression tests: small compressed fixtures committed
// under testdata/golden/ — one per algorithm, plus the stream
// containers and the legacy parallel container, which nothing writes
// any more — decoded against a recorded CRC of the reconstruction.
// Accidental format drift (a container or entropy-coder change that can
// no longer read old archives, or that silently decodes them
// differently) fails here in tier-1 instead of surfacing when a real
// archive is reopened.
//
// Regenerate after an INTENTIONAL format change with:
//
//	go test -run TestGoldenDecode -update-golden .
//
// and commit the new fixtures together with the change that required
// them.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/grid"
	"repro/internal/streamfmt"
)

var updateGolden = flag.Bool("update-golden", false, "regenerate testdata/golden fixtures")

const goldenDir = "testdata/golden"

// goldenField is the deterministic source field every fixture encodes:
// NYX dark-matter density, 8^3, fixed seed.
func goldenField() datagen.Field {
	return datagen.NYX(8, 424242)[0]
}

// goldenCase describes one fixture: make rebuilds it from the golden
// field, and TestGoldenDecode asserts that it still reproduces the
// committed bytes exactly. The legacy parallel format has no writer any
// more, so its make is a test-only builder. dims is the shape the
// fixture decodes to; nil means the golden field's own.
type goldenCase struct {
	name string
	dims []int
	make func(f datagen.Field) ([]byte, error)
}

// goldenShapes reshapes the golden field's 512 values to ranks 1, 2
// and 4, so the rank-dependent Lorenzo paths of SZ and FPZIP are pinned
// as well as the rank-3 one every other fixture takes.
var goldenShapes = [][]int{{512}, {16, 32}, {2, 4, 8, 8}}

// goldenNonFinite returns a copy of the golden field with NaN, ±Inf,
// exact zeros and negated values mixed in, the points SZ stores
// verbatim or routes around its quantizer.
func goldenNonFinite(f datagen.Field) []float64 {
	data := append([]float64(nil), f.Data...)
	for i := range data {
		switch {
		case i%37 == 5:
			data[i] = math.NaN()
		case i%41 == 7:
			data[i] = math.Inf(1)
		case i%43 == 11:
			data[i] = math.Inf(-1)
		case i%13 == 3:
			data[i] = 0
		case i%5 == 2:
			data[i] = -data[i]
		}
	}
	return data
}

// goldenCodecCases pins SZ_T, SZ_PWR, SZ_ABS and FPZIP at every shape
// of goldenShapes, FPZIP's float32 layout, and SZ's three modes on
// goldenNonFinite.
func goldenCodecCases() []goldenCase {
	var cases []goldenCase
	for _, shape := range goldenShapes {
		shape := shape
		suffix := fmt.Sprintf("_r%d", len(shape))
		for _, algo := range []Algorithm{SZT, SZPWR, FPZIP} {
			algo := algo
			cases = append(cases, goldenCase{name: strings.ToLower(algo.String()) + suffix, dims: shape,
				make: func(f datagen.Field) ([]byte, error) {
					return Compress(f.Data, shape, 1e-2, algo, nil)
				}})
		}
		cases = append(cases, goldenCase{name: "sz_abs" + suffix, dims: shape,
			make: func(f datagen.Field) ([]byte, error) {
				return CompressAbs(f.Data, shape, 0.01, SZABS, nil)
			}})
	}
	cases = append(cases, goldenCase{name: "fpzip32", make: func(f datagen.Field) ([]byte, error) {
		f32 := make([]float32, len(f.Data))
		for i, v := range f.Data {
			f32[i] = float32(v)
		}
		return Compress32(f32, f.Dims, 1e-2, FPZIP, nil)
	}})
	for _, algo := range []Algorithm{SZT, SZPWR} {
		algo := algo
		cases = append(cases, goldenCase{name: strings.ToLower(algo.String()) + "_nonfinite",
			make: func(f datagen.Field) ([]byte, error) {
				return Compress(goldenNonFinite(f), f.Dims, 1e-2, algo, nil)
			}})
	}
	return append(cases, goldenCase{name: "sz_abs_nonfinite", make: func(f datagen.Field) ([]byte, error) {
		return CompressAbs(goldenNonFinite(f), f.Dims, 0.01, SZABS, nil)
	}})
}

func goldenCases() []goldenCase {
	cases := []goldenCase{}
	for _, algo := range RelativeAlgorithms() {
		algo := algo
		cases = append(cases, goldenCase{
			name: strings.ToLower(algo.String()),
			make: func(f datagen.Field) ([]byte, error) {
				return Compress(f.Data, f.Dims, 1e-2, algo, nil)
			},
		})
	}
	cases = append(cases,
		goldenCase{name: "sz_abs", make: func(f datagen.Field) ([]byte, error) {
			return CompressAbs(f.Data, f.Dims, 0.01, SZABS, nil)
		}},
		goldenCase{name: "zfp_acc", make: func(f datagen.Field) ([]byte, error) {
			return CompressAbs(f.Data, f.Dims, 0.01, ZFPACC, nil)
		}},
		goldenCase{name: "parallel", make: func(f datagen.Field) ([]byte, error) {
			return buildParallelV1(f.Data, f.Dims, 1e-2, SZT, 3)
		}},
		goldenCase{name: "stream", make: func(f datagen.Field) ([]byte, error) {
			var buf bytes.Buffer
			raw := make([]byte, len(f.Data)*8)
			for i, v := range f.Data {
				binary.LittleEndian.PutUint64(raw[i*8:], math.Float64bits(v))
			}
			_, err := CompressStreamOpts(bytes.NewReader(raw), &buf, f.Dims, 1e-2, SZT,
				WithChunkRows(3))
			return buf.Bytes(), err
		}},
		goldenCase{name: "stream_parity", make: func(f datagen.Field) ([]byte, error) {
			var buf bytes.Buffer
			raw := make([]byte, len(f.Data)*8)
			for i, v := range f.Data {
				binary.LittleEndian.PutUint64(raw[i*8:], math.Float64bits(v))
			}
			_, err := CompressStreamOpts(bytes.NewReader(raw), &buf, f.Dims, 1e-2, SZT,
				WithChunkRows(3), WithParity(2))
			return buf.Bytes(), err
		}},
	)
	return append(cases, goldenCodecCases()...)
}

func decodedCRC(dec []float64) uint32 {
	h := crc32.NewIEEE()
	var b [8]byte
	for _, v := range dec {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		_, _ = h.Write(b[:]) // hash.Hash.Write never errors
	}
	return h.Sum32()
}

func manifestPath() string { return filepath.Join(goldenDir, "manifest.txt") }

func readManifest(t *testing.T) map[string]uint32 {
	t.Helper()
	f, err := os.Open(manifestPath())
	if err != nil {
		t.Fatalf("golden manifest missing (run with -update-golden to create): %v", err)
	}
	defer f.Close() // read-only file; scanner errors are checked
	out := map[string]uint32{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var name string
		var crc uint32
		if _, err := fmt.Sscanf(line, "%s %08x", &name, &crc); err != nil {
			t.Fatalf("bad manifest line %q: %v", line, err)
		}
		out[name] = crc
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestGoldenDecode pins the committed fixtures both ways: every
// fixture must still rebuild byte-identically from the golden field (a
// writer whose output drifts fails even while the decoder still reads
// the old bytes), parse, and decode to the recorded reconstruction
// (CRC).
func TestGoldenDecode(t *testing.T) {
	f := goldenField()
	if *updateGolden {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		var manifest strings.Builder
		manifest.WriteString("# <fixture name> <crc32 of decoded little-endian float64 bytes>\n")
		manifest.WriteString("# regenerate: go test -run TestGoldenDecode -update-golden .\n")
		for _, c := range goldenCases() {
			buf, err := c.make(f)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if err := os.WriteFile(filepath.Join(goldenDir, c.name+".bin"), buf, 0o644); err != nil {
				t.Fatal(err)
			}
			dec, _, err := DecompressAny(buf)
			if err != nil {
				t.Fatalf("%s: decode own fixture: %v", c.name, err)
			}
			fmt.Fprintf(&manifest, "%s %08x\n", c.name, decodedCRC(dec))
		}
		if err := os.WriteFile(manifestPath(), []byte(manifest.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %d fixtures under %s", len(goldenCases()), goldenDir)
	}

	want := readManifest(t)
	seen := map[string]bool{}
	for _, c := range goldenCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			seen[c.name] = true
			wantCRC, ok := want[c.name]
			if !ok {
				t.Fatalf("fixture %s not in manifest (stale manifest? run -update-golden)", c.name)
			}
			buf, err := os.ReadFile(filepath.Join(goldenDir, c.name+".bin"))
			if err != nil {
				t.Fatalf("fixture missing: %v", err)
			}
			built, err := c.make(f)
			if err != nil {
				t.Fatalf("rebuilding the fixture: %v", err)
			}
			if !bytes.Equal(built, buf) {
				t.Fatalf("writer drift: the fixture no longer rebuilds byte-identically (%d vs %d bytes)", len(built), len(buf))
			}
			dec, dims, err := DecompressAny(buf)
			if err != nil {
				t.Fatalf("format drift: committed fixture no longer decodes: %v", err)
			}
			wantDims := c.dims
			if wantDims == nil {
				wantDims = f.Dims
			}
			if len(dec) != len(f.Data) || !grid.EqualDims(dims, wantDims) {
				t.Fatalf("decoded shape %v/%d, want %v/%d", dims, len(dec), wantDims, len(f.Data))
			}
			if got := decodedCRC(dec); got != wantCRC {
				t.Fatalf("format drift: decoded CRC %08x, manifest says %08x", got, wantCRC)
			}
		})
	}
	for name := range want {
		if !seen[name] {
			t.Errorf("manifest entry %s has no corresponding case (remove it or add the case)", name)
		}
	}
}

// TestGoldenSeekableRanges pins the seekable read path to the committed
// stream fixture: every range shape served by ReadRows must bit-match
// the corresponding slice of the manifest-verified full decode. Drift in
// the index-frame layout or the range→chunk mapping fails here against
// bytes written by the old code, not bytes written by the drifted code.
func TestGoldenSeekableRanges(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join(goldenDir, "stream.bin"))
	if err != nil {
		t.Fatalf("fixture missing (run -update-golden to create): %v", err)
	}
	full, dims, err := DecompressAny(buf)
	if err != nil {
		t.Fatalf("stream fixture no longer decodes: %v", err)
	}
	if got, want := decodedCRC(full), readManifest(t)["stream"]; got != want {
		t.Fatalf("full decode CRC %08x, manifest says %08x", got, want)
	}

	h, err := OpenStream(bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("format drift: committed fixture no longer opens seekably: %v", err)
	}
	if int(h.Rows()) != dims[0] || h.Chunks() != 3 {
		t.Fatalf("fixture geometry drifted: rows=%d chunks=%d, want %d/3", h.Rows(), h.Chunks(), dims[0])
	}
	stride := uint64(h.RowStride())
	// The fixture is 8 rows chunked every 3: aligned, straddling, first,
	// last, full, and empty ranges all exercise distinct chunk mappings.
	goldenRangeSweep(t, h, full, stride)
}

func goldenRangeSweep(t *testing.T, h *StreamHandle, full []float64, stride uint64) {
	t.Helper()
	for _, r := range [][2]uint64{{0, 3}, {3, 3}, {2, 4}, {0, 1}, {7, 1}, {0, 8}, {4, 0}} {
		start, count := r[0], r[1]
		dst := make([]float64, count*stride)
		if err := h.ReadRows(dst, start, count); err != nil {
			t.Fatalf("ReadRows[%d,+%d): %v", start, count, err)
		}
		for i := range dst {
			if want := full[start*stride+uint64(i)]; math.Float64bits(dst[i]) != math.Float64bits(want) {
				t.Fatalf("ReadRows[%d,+%d) element %d = %x, full decode has %x",
					start, count, i, math.Float64bits(dst[i]), math.Float64bits(want))
			}
		}
	}
}

// TestGoldenParityRepair pins the v2 parity layout to bytes written by
// the committed code: the stream_parity fixture must decode to the
// manifest CRC, serve the same range sweep as the parity-free fixture,
// and — after losing any single data chunk — salvage back to the exact
// recorded reconstruction. Drift in the parity-frame interleave, the
// extended index grammar, or the XOR group math fails here against old
// bytes.
func TestGoldenParityRepair(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join(goldenDir, "stream_parity.bin"))
	if err != nil {
		t.Fatalf("fixture missing (run -update-golden to create): %v", err)
	}
	full, _, err := DecompressAny(buf)
	if err != nil {
		t.Fatalf("parity fixture no longer decodes: %v", err)
	}
	wantCRC := readManifest(t)["stream_parity"]
	if got := decodedCRC(full); got != wantCRC {
		t.Fatalf("full decode CRC %08x, manifest says %08x", got, wantCRC)
	}

	h, err := OpenStream(bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("parity fixture no longer opens seekably: %v", err)
	}
	goldenRangeSweep(t, h, full, uint64(h.RowStride()))

	var clean bytes.Buffer
	if _, err := DecompressStreamOpts(bytes.NewReader(buf), &clean); err != nil {
		t.Fatalf("sequential decode: %v", err)
	}
	rep, err := DecompressStreamSalvage(bytes.NewReader(buf), io.Discard)
	if err != nil || rep.Lost() != 0 {
		t.Fatalf("clean salvage: err %v, lost %v", err, rep.LostChunks)
	}
	scan, err := streamfmt.ScanSalvage(buf, streamfmt.Limits{})
	if err != nil || !scan.IndexOK || len(scan.Frames) != rep.Chunks {
		t.Fatalf("fixture scan: err %v, index %v, %d frames for %d chunks",
			err, scan.IndexOK, len(scan.Frames), rep.Chunks)
	}
	for c := 0; c < rep.Chunks; c++ {
		damaged := append([]byte(nil), buf...)
		damaged[(scan.Frames[c].Offset+scan.Frames[c].End)/2] ^= 0x20
		var out bytes.Buffer
		rep, err := DecompressStreamSalvage(bytes.NewReader(damaged), &out)
		if err != nil {
			t.Fatalf("chunk %d: salvage: %v", c, err)
		}
		if rep.Lost() != 0 || len(rep.RepairedChunks) != 1 || rep.RepairedChunks[0] != c {
			t.Fatalf("chunk %d: lost %v repaired %v, want clean single repair",
				c, rep.LostChunks, rep.RepairedChunks)
		}
		if !bytes.Equal(out.Bytes(), clean.Bytes()) {
			t.Fatalf("chunk %d: repaired output diverges from committed reconstruction", c)
		}
	}
}

// TestGoldenArchiveV3 pins the v3 streaming-archive layout (tail
// directory + trailer) to committed bytes. The fixture's two fields are
// written with the same chunking as the stream and stream_parity
// fixtures, so their decodes must match those manifest CRCs — drift in
// the v3 directory grammar, the extent lifting, or the section read
// path fails here against bytes written by the old code. Regenerated by
// the same -update-golden run as the rest.
func TestGoldenArchiveV3(t *testing.T) {
	path := filepath.Join(goldenDir, "archive_v3.bin")
	if *updateGolden {
		f := goldenField()
		raw := make([]byte, len(f.Data)*8)
		for i, v := range f.Data {
			binary.LittleEndian.PutUint64(raw[i*8:], math.Float64bits(v))
		}
		var buf bytes.Buffer
		aw, err := NewArchiveStreamWriter(&buf, WithChunkRows(3))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := aw.AddField("density", bytes.NewReader(raw), f.Dims, 1e-2, SZT); err != nil {
			t.Fatal(err)
		}
		if _, err := aw.AddField("density_parity", bytes.NewReader(raw), f.Dims, 1e-2, SZT,
			WithParity(2)); err != nil {
			t.Fatal(err)
		}
		if err := aw.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", path)
	}

	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("fixture missing (run -update-golden to create): %v", err)
	}
	manifest := readManifest(t)
	wantCRC := map[string]uint32{
		"density":        manifest["stream"],
		"density_parity": manifest["stream_parity"],
	}

	ar, err := OpenArchive(buf)
	if err != nil {
		t.Fatalf("format drift: committed v3 archive no longer opens in-memory: %v", err)
	}
	as, err := OpenArchiveStream(bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("format drift: committed v3 archive no longer opens seekably: %v", err)
	}
	for name, want := range wantCRC {
		dec, dims, err := ar.Field(name)
		if err != nil {
			t.Fatalf("field %q no longer decodes in-memory: %v", name, err)
		}
		if got := decodedCRC(dec); got != want {
			t.Fatalf("field %q in-memory CRC %08x, manifest says %08x", name, got, want)
		}
		h, err := as.Field(name)
		if err != nil {
			t.Fatalf("field %q no longer opens seekably: %v", name, err)
		}
		if int(h.Rows()) != dims[0] {
			t.Fatalf("field %q geometry drifted: %d rows, want %d", name, h.Rows(), dims[0])
		}
		got := make([]float64, h.Rows()*uint64(h.RowStride()))
		if err := h.ReadRows(got, 0, h.Rows()); err != nil {
			t.Fatalf("field %q full-range read: %v", name, err)
		}
		if crc := decodedCRC(got); crc != want {
			t.Fatalf("field %q seekable CRC %08x, manifest says %08x", name, crc, want)
		}
		goldenRangeSweep(t, h, dec, uint64(h.RowStride()))
	}
}
