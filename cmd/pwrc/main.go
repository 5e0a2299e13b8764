// Command pwrc is the point-wise-relative compressor CLI: it compresses and
// decompresses raw binary float arrays with any of the repository's
// algorithms.
//
// Raw input is a little-endian array of float64 (or float32 with -f32).
//
// Examples:
//
//	pwrc -c -algo sz_t -rel 1e-3 -dims 512,512,512 -in snap.f64 -out snap.szt
//	pwrc -d -in snap.szt -out snap.out.f64
//	pwrc -c -algo sz_abs -abs 0.01 -dims 1048576 -in v.f64 -out v.sz
//
// With -stream the file is compressed (or decompressed) through the
// bounded-memory pipeline: the input is never loaded whole, so fields
// far larger than RAM stream through O(workers × chunk) memory:
//
//	pwrc -c -stream -algo sz_t -rel 1e-3 -dims 4096,512,512 -in huge.f64 -out huge.szs
//	pwrc -d -stream -in huge.szs -out huge.out.f64
//
// -mem-budget caps the streaming pipeline's resident buffer memory,
// deriving chunk size and worker count from the byte budget. -c -archive
// bundles a whole manifest into one v3 streaming archive, and with
// -stream, -d -archive serves single fields out of one without touching
// the rest:
//
//	pwrc -c -archive -stream -manifest fields/MANIFEST.txt -rel 1e-3 -out snap.arcs -mem-budget 67108864
//	pwrc -d -archive -stream -in snap.arcs -outdir restored/
//	pwrc -d -archive -stream -in snap.arcs -field baryon_density -out baryon.f64
package main

import (
	"bufio"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/atomicio"
	"repro/internal/faultio"
	"repro/internal/floatbits"
	"repro/internal/metrics"
)

// inputRetries is the bounded retry budget applied to streaming input
// reads: transient I/O hiccups (flaky network mounts) are absorbed,
// persistent failures propagate wrapped after this many extra attempts.
const inputRetries = 3

func main() {
	var (
		compress   = flag.Bool("c", false, "compress")
		decompress = flag.Bool("d", false, "decompress")
		algoName   = flag.String("algo", "sz_t", "algorithm: sz_t zfp_t sz_pwr zfp_p fpzip isabela sz_abs zfp_acc")
		rel        = flag.Float64("rel", 0, "point-wise relative error bound (0,1)")
		abs        = flag.Float64("abs", 0, "absolute error bound (sz_abs / zfp_acc)")
		dimsFlag   = flag.String("dims", "", "comma-separated dimensions, slowest first (e.g. 512,512,512)")
		in         = flag.String("in", "", "input file")
		out        = flag.String("out", "", "output file")
		f32        = flag.Bool("f32", false, "raw data is float32 instead of float64")
		verify     = flag.Bool("verify", false, "after compressing, decompress and report error stats; with -stream, decode-verify every chunk before the container commits")
		base       = flag.String("base", "2", "log base for sz_t/zfp_t: 2, e, 10")
		archive    = flag.Bool("archive", false, "archive mode: bundle/extract a whole manifest of fields")
		manifest   = flag.String("manifest", "", "MANIFEST.txt path (archive compression)")
		outdir     = flag.String("outdir", "", "output directory (archive extraction)")
		stream     = flag.Bool("stream", false, "bounded-memory streaming mode (float64 raw only)")
		salvage    = flag.Bool("salvage", false, "with -d -stream: recover what survives of a damaged container, NaN-filling lost rows")
		rowRange   = flag.String("range", "", "with -d -stream: decode only rows start:count (e.g. 4096:128) via the seekable index")
		workers    = flag.Int("workers", 0, "streaming worker count (default GOMAXPROCS)")
		chunkRows  = flag.Int("chunk-rows", 0, "rows of the slowest dimension per streamed chunk (default ~256Ki elements)")
		parity     = flag.Int("parity", 0, "with -c -stream: emit one XOR parity frame per k data chunks so salvage can repair a lost chunk per group (~1/k size overhead; 0 = no parity)")
		maxElems   = flag.Int64("max-elements", 1<<33, "with -d -stream: refuse containers declaring more than n field elements — a hostile header cannot demand unbounded output (0 = unlimited)")
		memBudget  = flag.Int64("mem-budget", 0, "with -stream: target peak resident buffer memory in bytes; unset chunk-rows/worker knobs are derived from it (0 = no budget)")
		field      = flag.String("field", "", "with -d -archive -stream: extract only this field (manifest name or full entry)")
	)
	flag.Parse()

	if *compress == *decompress {
		fatalf("exactly one of -c or -d is required")
	}
	if *salvage && !(*stream && *decompress) {
		fatalf("-salvage requires -d -stream")
	}
	if *rowRange != "" && !(*stream && *decompress) {
		fatalf("-range requires -d -stream")
	}
	if *rowRange != "" && *salvage {
		fatalf("-range cannot be combined with -salvage (a range read refuses damaged containers)")
	}
	if *parity != 0 && !(*stream && *compress) {
		fatalf("-parity requires -c -stream")
	}
	if *memBudget != 0 && !*stream {
		fatalf("-mem-budget requires -stream")
	}
	if *field != "" && !(*archive && *stream && *decompress) {
		fatalf("-field requires -d -archive -stream")
	}

	if *archive {
		switch {
		case *compress:
			algo, err := parseAlgo(*algoName)
			check(err)
			if *manifest == "" || *out == "" {
				fatalf("archive compression needs -manifest and -out")
			}
			if !(*rel > 0 && *rel < 1) {
				fatalf("archive compression needs -rel in (0,1)")
			}
			copts, err := parseBase(*base)
			check(err)
			sopts := append(streamFlagOptions(*workers, *chunkRows, *parity, *verify, *memBudget),
				repro.WithCompressorOptions(copts))
			check(streamCompressArchive(*manifest, algo, *rel, sopts, *out, *f32))
		default:
			if *in == "" {
				fatalf("archive extraction needs -in")
			}
			if *stream {
				if *outdir == "" && (*field == "" || *out == "") {
					fatalf("streaming archive extraction needs -outdir, or -field with -out")
				}
				check(streamExtractArchive(*in, *outdir, *field, *out,
					streamFlagOptions(*workers, 0, 0, false, *memBudget),
					decodeLimits(*maxElems), *f32))
			} else {
				if *outdir == "" {
					fatalf("archive extraction needs -in and -outdir")
				}
				check(extractArchive(*in, *outdir, *f32))
			}
		}
		return
	}

	if *in == "" || *out == "" {
		fatalf("-in and -out are required")
	}

	if *stream {
		if *f32 {
			fatalf("-stream supports float64 raw data only")
		}
		if *decompress {
			lim := decodeLimits(*maxElems)
			dopts := streamFlagOptions(*workers, 0, 0, false, *memBudget)
			switch {
			case *salvage:
				streamSalvageFile(*in, *out, lim, dopts)
			case *rowRange != "":
				start, count, err := parseRange(*rowRange)
				check(err)
				streamReadRangeFile(*in, *out, start, count, lim, dopts)
			default:
				streamDecompressFile(*in, *out, lim, dopts)
			}
			return
		}
		dims, err := parseDims(*dimsFlag)
		check(err)
		algo, err := parseAlgo(*algoName)
		check(err)
		copts, err := parseBase(*base)
		check(err)
		if !(*rel > 0 && *rel < 1) {
			fatalf("%v needs -rel in (0,1)", algo)
		}
		sopts := append(streamFlagOptions(*workers, *chunkRows, *parity, *verify, *memBudget),
			repro.WithCompressorOptions(copts))
		streamCompressFile(*in, *out, dims, *rel, algo, sopts, *parity, *verify)
		return
	}

	if *decompress {
		buf, err := os.ReadFile(*in)
		check(err)
		t0 := time.Now()
		data, dims, err := repro.Decompress(buf)
		check(err)
		elapsed := time.Since(t0)
		check(writeRaw(*out, data, *f32))
		algo, _ := repro.AlgorithmOf(buf)
		fmt.Printf("decompressed %s: %d points dims=%v in %v (%.1f MB/s)\n",
			algo, len(data), dims, elapsed.Round(time.Millisecond),
			float64(len(data)*8)/1e6/elapsed.Seconds())
		return
	}

	dims, err := parseDims(*dimsFlag)
	check(err)
	data, err := readRaw(*in, *f32)
	check(err)

	algo, err := parseAlgo(*algoName)
	check(err)
	opts, err := parseBase(*base)
	check(err)

	var buf []byte
	t0 := time.Now()
	switch algo {
	case repro.SZABS, repro.ZFPACC:
		if !(*abs > 0) {
			fatalf("%v needs -abs > 0", algo)
		}
		buf, err = repro.CompressAbs(data, dims, *abs, algo, opts)
	default:
		if !(*rel > 0 && *rel < 1) {
			fatalf("%v needs -rel in (0,1)", algo)
		}
		buf, err = repro.Compress(data, dims, *rel, algo, opts)
	}
	check(err)
	elapsed := time.Since(t0)
	check(atomicio.WriteFile(*out, buf, 0o644))

	rawBytes := len(data) * 8
	fmt.Printf("compressed with %v: %d -> %d bytes (CR %.2f, %.2f bits/pt) in %v (%.1f MB/s)\n",
		algo, rawBytes, len(buf),
		metrics.CompressionRatio(rawBytes, len(buf)),
		metrics.BitRate(len(buf), len(data)),
		elapsed.Round(time.Millisecond),
		float64(rawBytes)/1e6/elapsed.Seconds())

	if *verify {
		dec, _, err := repro.Decompress(buf)
		check(err)
		bound := *rel
		if floatbits.IsZero(bound) {
			bound = math.Inf(1)
		}
		st, err := metrics.RelError(data, dec, bound)
		check(err)
		fmt.Printf("verify: bounded=%.4f%% avg_rel=%.3g max_rel=%.3g max_abs=%.3g zeros_perturbed=%d\n",
			st.BoundedFrac*100, st.Avg, st.Max, st.MaxAbs, st.ZeroPerturbed)
	}
}

func parseBase(s string) (*repro.Options, error) {
	for _, b := range []repro.LogBase{repro.Base2, repro.BaseE, repro.Base10} {
		if b.String() == s {
			return &repro.Options{Base: b}, nil
		}
	}
	return nil, fmt.Errorf("unknown base %q", s)
}

// streamFlagOptions translates the streaming CLI knobs into the shared
// functional-options form every streaming entry point consumes; zero
// values stay unset so library defaults (or a -mem-budget derivation)
// apply.
func streamFlagOptions(workers, chunkRows, parityK int, verify bool, memBudget int64) []repro.StreamOption {
	var o []repro.StreamOption
	if workers > 0 {
		o = append(o, repro.WithWorkers(workers))
	}
	if chunkRows > 0 {
		o = append(o, repro.WithChunkRows(chunkRows))
	}
	if parityK != 0 {
		o = append(o, repro.WithParity(parityK))
	}
	if verify {
		o = append(o, repro.WithVerifyOnWrite())
	}
	if memBudget != 0 {
		o = append(o, repro.WithMemoryBudget(memBudget))
	}
	return o
}

// streamCompressFile compresses in -> out through the bounded-memory
// pipeline without ever loading the field. The container is written to
// a same-directory temporary and only renamed over out once sealed, so
// a crash or I/O failure mid-stream never leaves a torn container.
func streamCompressFile(in, out string, dims []int, rel float64, algo repro.Algorithm, opts []repro.StreamOption, parityK int, verifyOn bool) {
	src, err := os.Open(in)
	check(err)
	defer src.Close() //lint:allow errdrop read-only input
	dst, err := atomicio.Create(out)
	check(err)
	defer dst.Abort()
	t0 := time.Now()
	r := faultio.Retry(bufio.NewReaderSize(src, 1<<20), inputRetries)
	st, err := repro.CompressStreamOpts(r, dst, dims, rel, algo, opts...)
	if err != nil {
		dst.Abort() // fatalf exits without running defers
		fatalf("stream compress: %v", err)
	}
	check(dst.Commit())
	elapsed := time.Since(t0)
	fmt.Printf("stream-compressed with %v: %d -> %d bytes (CR %.2f) in %v (%.1f MB/s)\n",
		algo, st.BytesIn, st.BytesOut,
		metrics.CompressionRatio(int(st.BytesIn), int(st.BytesOut)),
		elapsed.Round(time.Millisecond),
		float64(st.BytesIn)/1e6/elapsed.Seconds())
	fmt.Printf("stream stats: chunks=%d max_in_flight=%d buffers=%d read=%v codec=%v write=%v\n",
		st.Chunks, st.MaxInFlight, st.BuffersAllocated,
		st.ReadWall.Round(time.Millisecond), st.CodecWall.Round(time.Millisecond),
		st.WriteWall.Round(time.Millisecond))
	if parityK > 0 {
		fmt.Printf("parity: %d frames (1 per %d chunks)\n", st.ParityFrames, parityK)
	}
	if verifyOn {
		fmt.Printf("verify: %d chunks decode-verified before commit\n", st.VerifiedChunks)
	}
}

// streamDecompressFile decodes a stream container in -> out, committing
// the raw output atomically.
// decodeLimits builds the opt-in decode ceilings from -max-elements;
// 0 opts out entirely (the library treats nil as unlimited).
func decodeLimits(maxElems int64) *repro.DecodeLimits {
	if maxElems <= 0 {
		return nil
	}
	return &repro.DecodeLimits{MaxElements: maxElems}
}

func streamDecompressFile(in, out string, lim *repro.DecodeLimits, opts []repro.StreamOption) {
	src, err := os.Open(in)
	check(err)
	defer src.Close() //lint:allow errdrop read-only input
	dst, err := atomicio.Create(out)
	check(err)
	w := bufio.NewWriterSize(dst, 1<<20)
	t0 := time.Now()
	st, err := repro.DecompressStreamOpts(faultio.Retry(src, inputRetries), w,
		append(opts, repro.WithLimits(lim))...)
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		dst.Abort() // fatalf exits without running defers
		fatalf("stream decompress: %v", err)
	}
	check(dst.Commit())
	elapsed := time.Since(t0)
	fmt.Printf("stream-decompressed: %d -> %d bytes (%d chunks) in %v (%.1f MB/s)\n",
		st.BytesIn, st.BytesOut, st.Chunks,
		elapsed.Round(time.Millisecond),
		float64(st.BytesOut)/1e6/elapsed.Seconds())
}

// parseRange parses the -range argument "start:count" (rows).
func parseRange(s string) (start, count uint64, err error) {
	lo, hi, ok := strings.Cut(s, ":")
	if !ok {
		return 0, 0, fmt.Errorf("bad -range %q: want start:count", s)
	}
	if start, err = strconv.ParseUint(strings.TrimSpace(lo), 10, 64); err != nil {
		return 0, 0, fmt.Errorf("bad -range start %q: %v", lo, err)
	}
	if count, err = strconv.ParseUint(strings.TrimSpace(hi), 10, 64); err != nil {
		return 0, 0, fmt.Errorf("bad -range count %q: %v", hi, err)
	}
	return start, count, nil
}

// streamReadRangeFile serves rows [start, start+count) of a sealed
// stream container through the seekable index: only the touched chunks
// are fetched and decoded, so the cost scales with the range, not the
// container.
func streamReadRangeFile(in, out string, start, count uint64, lim *repro.DecodeLimits, opts []repro.StreamOption) {
	src, err := os.Open(in)
	check(err)
	defer src.Close() //lint:allow errdrop read-only input
	h, err := repro.OpenStream(src, append(opts, repro.WithLimits(lim))...)
	if err != nil {
		fatalf("open stream: %v", err)
	}
	dst := make([]float64, count*uint64(h.RowStride()))
	t0 := time.Now()
	if err := h.ReadRows(dst, start, count); err != nil {
		fatalf("read rows [%d,+%d): %v", start, count, err)
	}
	elapsed := time.Since(t0)
	check(writeRaw(out, dst, false))
	st := h.Stats()
	fmt.Printf("read rows [%d,%d) of %d (dims=%v): %d chunks of %d, %d container bytes fetched, %d bytes out in %v\n",
		start, start+count, h.Rows(), h.Dims(), st.Chunks, h.Chunks(), st.BytesIn, st.BytesOut,
		elapsed.Round(time.Millisecond))
	if st.RepairedChunks > 0 {
		fmt.Printf("repaired %d damaged chunk(s) from parity during the read\n", st.RepairedChunks)
	}
}

// streamSalvageFile recovers the intact chunks of a damaged stream
// container — repairing single losses from parity where the container
// carries it — and reports exactly what was lost.
func streamSalvageFile(in, out string, lim *repro.DecodeLimits, opts []repro.StreamOption) {
	src, err := os.Open(in)
	check(err)
	defer src.Close() //lint:allow errdrop read-only input
	dst, err := atomicio.Create(out)
	check(err)
	w := bufio.NewWriterSize(dst, 1<<20)
	rep, err := repro.DecompressStreamSalvage(faultio.Retry(src, inputRetries), w,
		append(opts, repro.WithLimits(lim))...)
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		dst.Abort() // fatalf exits without running defers
		fatalf("salvage: %v", err)
	}
	check(dst.Commit())
	fmt.Printf("salvaged %d of %d chunks (dims=%v, %d -> %d bytes)\n",
		rep.Recovered, rep.Chunks, rep.Dims, rep.BytesIn, rep.BytesOut)
	if n := rep.Repaired(); n > 0 {
		fmt.Printf("repaired %d damaged chunk(s) from parity: %v\n", n, rep.RepairedChunks)
	}
	if len(rep.DamagedParity) > 0 {
		fmt.Printf("damaged parity frames (groups %v): repair degraded to skip\n", rep.DamagedParity)
	}
	if !rep.IndexOK {
		fmt.Println("index frame damaged: recovery relied on forward scan")
	}
	if rep.Truncated {
		fmt.Println("container is truncated")
	}
	for _, rr := range rep.LostRows {
		fmt.Printf("lost rows [%d,%d): filled with NaN\n", rr.Lo, rr.Hi)
	}
	for _, br := range rep.LostBytes {
		fmt.Printf("damaged container bytes [%d,%d)\n", br.Lo, br.Hi)
	}
	if rep.Lost() == 0 {
		fmt.Println("no data lost")
	}
}

// parseAlgo maps an -algo value to the algorithm whose name
// (Algorithm.String) it spells, in any case and with or without the
// underscore.
func parseAlgo(s string) (repro.Algorithm, error) {
	want := strings.ToLower(s)
	for a := repro.SZT; a <= repro.FPZIP32; a++ {
		name := strings.ToLower(a.String())
		if want == name || want == strings.ReplaceAll(name, "_", "") {
			return a, nil
		}
	}
	return 0, fmt.Errorf("unknown algorithm %q", s)
}

func parseDims(s string) ([]int, error) {
	if s == "" {
		return nil, fmt.Errorf("-dims is required for compression")
	}
	parts := strings.Split(s, ",")
	dims := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad dimension %q", p)
		}
		dims[i] = v
	}
	return dims, nil
}

func readRaw(path string, f32 bool) ([]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if f32 {
		if len(raw)%4 != 0 {
			return nil, fmt.Errorf("file size %d not a multiple of 4", len(raw))
		}
		out := make([]float64, len(raw)/4)
		for i := range out {
			out[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(raw[i*4:])))
		}
		return out, nil
	}
	if len(raw)%8 != 0 {
		return nil, fmt.Errorf("file size %d not a multiple of 8", len(raw))
	}
	out := make([]float64, len(raw)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
	}
	return out, nil
}

func writeRaw(path string, data []float64, f32 bool) error {
	var raw []byte
	if f32 {
		raw = make([]byte, len(data)*4)
		for i, v := range data {
			binary.LittleEndian.PutUint32(raw[i*4:], math.Float32bits(float32(v)))
		}
	} else {
		raw = make([]byte, len(data)*8)
		for i, v := range data {
			binary.LittleEndian.PutUint64(raw[i*8:], math.Float64bits(v))
		}
	}
	return atomicio.WriteFile(path, raw, 0o644)
}

func check(err error) {
	if err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "pwrc: "+format+"\n", args...)
	os.Exit(1)
}
