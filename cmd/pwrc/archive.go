package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro"
	"repro/internal/atomicio"
	"repro/internal/faultio"
)

// Archive mode: bundle every field of a MANIFEST.txt (as written by
// cmd/datagen) into one compressed archive, or extract an archive back to
// raw files.
//
//	pwrc -c -archive -manifest fields/MANIFEST.txt -algo sz_t -rel 1e-3 -out snap.arc
//	pwrc -d -archive -in snap.arc -outdir restored/
//
// The bundle is always a v3 streaming archive: each field flows through
// the bounded-memory chunk pipeline straight into the container (no
// field is ever held whole). Plain -d -archive loads the whole archive
// and reads every layout, including the v1/v2 archives earlier versions
// wrote; with -stream, extraction serves v3 fields through the seekable
// index — -field pulls one field without touching the rest.

// streamCompressArchive bundles every manifest field into one v3
// streaming archive. Each field file streams through the bounded-memory
// pipeline directly into the container — peak memory is set by the
// chunking knobs (or -mem-budget), not by the largest field — and the
// archive is committed atomically only after the directory seals.
func streamCompressArchive(manifest string, algo repro.Algorithm, rel float64, opts []repro.StreamOption, out string, f32 bool) error {
	dir := filepath.Dir(manifest)
	mf, err := os.Open(manifest)
	if err != nil {
		return err
	}
	defer mf.Close() //lint:allow errdrop read-only file; scanner errors are checked

	dst, err := atomicio.Create(out)
	if err != nil {
		return err
	}
	defer dst.Abort()
	bw := bufio.NewWriterSize(dst, 1<<20)
	aw, err := repro.NewArchiveStreamWriter(bw, opts...)
	if err != nil {
		return err
	}

	var totalRaw, totalBlob int64
	t0 := time.Now()
	scanner := bufio.NewScanner(mf)
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, "\t")
		if len(parts) < 2 {
			return fmt.Errorf("malformed manifest line %q", line)
		}
		name, dimsStr := parts[0], parts[1]
		dims, err := parseDims(dimsStr)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		st, err := streamArchiveField(aw, filepath.Join(dir, name), name+"|"+dimsStr, dims, rel, algo, f32)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		totalRaw += st.BytesIn
		totalBlob += st.BytesOut
		fmt.Printf("  %s: %d -> %d bytes (%d chunks)\n", name, st.BytesIn, st.BytesOut, st.Chunks)
	}
	if err := scanner.Err(); err != nil {
		return err
	}
	if err := aw.Close(); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := dst.Commit(); err != nil {
		return err
	}
	fmt.Printf("stream archive %s: %d -> %d blob bytes (CR %.2f) in %v\n",
		out, totalRaw, totalBlob, float64(totalRaw)/float64(totalBlob),
		time.Since(t0).Round(time.Millisecond))
	return nil
}

// streamArchiveField streams one raw field file into the archive writer,
// scoping the input file's lifetime to the call.
func streamArchiveField(aw *repro.ArchiveStreamWriter, path, entry string, dims []int, rel float64, algo repro.Algorithm, f32 bool) (*repro.StreamStats, error) {
	src, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer src.Close() //lint:allow errdrop read-only input
	r := faultio.Retry(bufio.NewReaderSize(src, 1<<20), inputRetries)
	if f32 {
		return aw.AddField32(entry, r, dims, rel, algo)
	}
	return aw.AddField(entry, r, dims, rel, algo)
}

// streamExtractArchive restores fields from a v3 streaming archive via
// the seekable per-field index. With field set, only that field's
// extent is read (to outFile when given, else outdir); otherwise every
// field lands in outdir. Rows stream out in bounded batches, so
// extraction memory stays flat no matter the field size.
func streamExtractArchive(in, outdir, field, outFile string, opts []repro.StreamOption, lim *repro.DecodeLimits, f32 bool) error {
	src, err := os.Open(in)
	if err != nil {
		return err
	}
	defer src.Close() //lint:allow errdrop read-only input
	as, err := repro.OpenArchiveStream(src, append(opts, repro.WithLimits(lim))...)
	if err != nil {
		return err
	}

	entries := as.SortedFields()
	if field != "" {
		match := ""
		for _, e := range entries {
			if e == field || fieldBaseName(e) == field {
				match = e
				break
			}
		}
		if match == "" {
			return fmt.Errorf("field %q not in archive (have %v)", field, entries)
		}
		entries = entries[:0]
		entries = append(entries, match)
	}
	if outdir != "" {
		if err := os.MkdirAll(outdir, 0o755); err != nil {
			return err
		}
	}
	for _, entry := range entries {
		path := outFile
		if path == "" {
			path = filepath.Join(outdir, fieldBaseName(entry))
		}
		if err := streamExtractField(as, entry, path, f32); err != nil {
			return fmt.Errorf("%s: %w", fieldBaseName(entry), err)
		}
	}
	return nil
}

// fieldBaseName strips the "|dims" suffix archive entries carry.
func fieldBaseName(entry string) string {
	if i := strings.IndexByte(entry, '|'); i >= 0 {
		return entry[:i]
	}
	return entry
}

// streamExtractField decodes one archived field to path in row batches
// of at most ~8 MiB of raw output, committing the file atomically.
func streamExtractField(as *repro.ArchiveStream, entry, path string, f32 bool) error {
	h, err := as.Field(entry)
	if err != nil {
		return err
	}
	dst, err := atomicio.Create(path)
	if err != nil {
		return err
	}
	defer dst.Abort()
	w := bufio.NewWriterSize(dst, 1<<20)

	rows := h.Rows()
	stride := uint64(h.RowStride())
	batch := uint64(8<<20) / (stride * 8)
	if batch == 0 {
		batch = 1
	}
	vals := make([]float64, batch*stride)
	for start := uint64(0); start < rows; start += batch {
		n := batch
		if rows-start < n {
			n = rows - start
		}
		chunk := vals[:n*stride]
		if err := h.ReadRows(chunk, start, n); err != nil {
			return err
		}
		if err := writeValsLE(w, chunk, f32); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := dst.Commit(); err != nil {
		return err
	}
	st := h.Stats()
	fmt.Printf("  %s: %d rows dims=%v (%d container bytes fetched)\n",
		path, rows, h.Dims(), st.BytesIn)
	return nil
}

// writeValsLE appends vals to w as little-endian float64 (or narrowed
// float32) raw bytes.
func writeValsLE(w io.Writer, vals []float64, f32 bool) error {
	if f32 {
		raw := make([]byte, len(vals)*4)
		for i, v := range vals {
			binary.LittleEndian.PutUint32(raw[i*4:], math.Float32bits(float32(v)))
		}
		_, err := w.Write(raw)
		return err
	}
	raw := make([]byte, len(vals)*8)
	for i, v := range vals {
		binary.LittleEndian.PutUint64(raw[i*8:], math.Float64bits(v))
	}
	_, err := w.Write(raw)
	return err
}

func extractArchive(in, outdir string, f32 bool) error {
	buf, err := os.ReadFile(in)
	if err != nil {
		return err
	}
	r, err := repro.OpenArchive(buf)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outdir, 0o755); err != nil {
		return err
	}
	for _, entry := range r.Fields() {
		name := entry
		if i := strings.IndexByte(entry, '|'); i >= 0 {
			name = entry[:i]
		}
		data, dims, err := r.Field(entry)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		path := filepath.Join(outdir, name)
		if err := writeRaw(path, data, f32); err != nil {
			return err
		}
		fmt.Printf("  %s: %d points dims=%v\n", path, len(data), dims)
	}
	return nil
}
