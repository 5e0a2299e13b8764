package experiments

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"

	"repro"
	"repro/internal/datagen"
)

// SeekAccessResult measures the seekable read path (repro.OpenStream +
// ReadRows) against the sequential decoder on a many-chunk container:
// the random-access claim is that a small row range costs bytes and time
// proportional to the chunks it touches, not to the container.
type SeekAccessResult struct {
	Rows, Stride int
	Chunks       int
	Container    int // container bytes

	Entries []SeekAccessEntry
}

// SeekAccessEntry is one access pattern's measured cost.
type SeekAccessEntry struct {
	Name         string
	RowsRead     uint64
	ChunksRead   int
	BytesFetched int64
	Seconds      float64
}

type countingSeeker struct {
	r *bytes.Reader
	n int64
}

func (c *countingSeeker) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingSeeker) Seek(offset int64, whence int) (int64, error) {
	return c.r.Seek(offset, whence)
}

// SeekAccess builds a one-row-per-chunk container (10k chunks at bench
// scale) and compares a sequential full decode, a seekable full-span
// read, and a seekable 1% range read.
func SeekAccess(cfg Config) (*SeekAccessResult, error) {
	rows := 10000
	if cfg.Scale == datagen.ScaleTest {
		rows = 1000
	}
	const stride = 4
	res := &SeekAccessResult{Rows: rows, Stride: stride, Chunks: rows}

	raw := make([]byte, rows*stride*8)
	for i := 0; i < rows*stride; i++ {
		v := 40*math.Cos(float64(i)/7) + 90
		binary.LittleEndian.PutUint64(raw[i*8:], math.Float64bits(v))
	}
	var comp bytes.Buffer
	if _, err := repro.CompressStreamOpts(bytes.NewReader(raw), &comp, []int{rows, stride},
		1e-2, repro.SZT, repro.WithChunkRows(1)); err != nil {
		return nil, err
	}
	stream := comp.Bytes()
	res.Container = len(stream)

	// Sequential baseline: the pre-seekable way to serve any range.
	src := &countingSeeker{r: bytes.NewReader(stream)}
	t0 := time.Now()
	st, err := repro.DecompressStreamOpts(src, io.Discard)
	if err != nil {
		return nil, err
	}
	res.Entries = append(res.Entries, SeekAccessEntry{
		Name: "sequential full decode", RowsRead: uint64(rows),
		ChunksRead: st.Chunks, BytesFetched: src.n, Seconds: time.Since(t0).Seconds(),
	})

	ranges := []struct {
		name         string
		start, count uint64
	}{
		{"seek full span", 0, uint64(rows)},
		{"seek 1% range", uint64(rows) * 2 / 5, uint64(rows) / 100},
	}
	for _, r := range ranges {
		src := &countingSeeker{r: bytes.NewReader(stream)}
		h, err := repro.OpenStream(src)
		if err != nil {
			return nil, err
		}
		src.n = 0 // charge only the range read, not the open
		dst := make([]float64, r.count*stride)
		t0 := time.Now()
		if err := h.ReadRows(dst, r.start, r.count); err != nil {
			return nil, err
		}
		el := time.Since(t0).Seconds()
		hs := h.Stats()
		res.Entries = append(res.Entries, SeekAccessEntry{
			Name: r.name, RowsRead: r.count,
			ChunksRead: hs.Chunks, BytesFetched: src.n, Seconds: el,
		})
	}
	return res, nil
}

// Print renders the access-pattern comparison.
func (r *SeekAccessResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Seekable random access (OpenStream/ReadRows) on a %d-chunk container (%d×%d field, %d bytes)\n",
		r.Chunks, r.Rows, r.Stride, r.Container)
	tw := newTabWriter(w)
	fmt.Fprintln(tw, "access\trows\tchunks\tbytes fetched\t% of container\tms")
	for _, e := range r.Entries {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%.2f\t%.2f\n",
			e.Name, e.RowsRead, e.ChunksRead, e.BytesFetched,
			100*float64(e.BytesFetched)/float64(r.Container), e.Seconds*1e3)
	}
	_ = tw.Flush() // display path: errors on w are not recoverable here
}
