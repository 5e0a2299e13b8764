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

// ParityOverheadResult measures what the self-healing layer costs: for
// each parity group size K, encode throughput relative to the
// parity-free container and the size overhead of the XOR frames. The
// expected shape is ~1/K size overhead (one parity frame of max-chunk
// length per K chunks) with a small, K-independent XOR cost on encode.
type ParityOverheadResult struct {
	Rows, Stride int
	Chunks       int
	RawBytes     int

	Entries []ParityOverheadEntry
}

// ParityOverheadEntry is one K's measured cost.
type ParityOverheadEntry struct {
	K            int
	Container    int
	ParityFrames int
	Seconds      float64
}

// ParityOverhead encodes the same field at K = 0 (baseline) and
// K ∈ {4, 16, 64} and reports encode throughput and container growth.
func ParityOverhead(cfg Config) (*ParityOverheadResult, error) {
	rows := 4096
	if cfg.Scale == datagen.ScaleTest {
		rows = 512
	}
	const stride = 16
	res := &ParityOverheadResult{Rows: rows, Stride: stride, RawBytes: rows * stride * 8}

	raw := make([]byte, rows*stride*8)
	for i := 0; i < rows*stride; i++ {
		v := 40*math.Cos(float64(i)/7) + 90
		binary.LittleEndian.PutUint64(raw[i*8:], math.Float64bits(v))
	}

	for _, k := range []int{0, 4, 16, 64} {
		var comp bytes.Buffer
		t0 := time.Now()
		st, err := repro.CompressStreamOpts(bytes.NewReader(raw), &comp, []int{rows, stride},
			1e-2, repro.SZT, repro.WithChunkRows(4), repro.WithParity(k))
		if err != nil {
			return nil, err
		}
		res.Chunks = st.Chunks
		res.Entries = append(res.Entries, ParityOverheadEntry{
			K: k, Container: comp.Len(), ParityFrames: st.ParityFrames,
			Seconds: time.Since(t0).Seconds(),
		})
	}
	return res, nil
}

// Print renders the K sweep against the K=0 baseline.
func (r *ParityOverheadResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Parity-frame overhead (XOR group size K) on a %d-chunk container (%d×%d field, %d raw bytes)\n",
		r.Chunks, r.Rows, r.Stride, r.RawBytes)
	base := r.Entries[0]
	baseTput := float64(r.RawBytes) / base.Seconds / 1e6
	tw := newTabWriter(w)
	fmt.Fprintln(tw, "K\tparity frames\tcontainer bytes\tsize overhead %\tencode MB/s\tthroughput delta %")
	for _, e := range r.Entries {
		tput := float64(r.RawBytes) / e.Seconds / 1e6
		fmt.Fprintf(tw, "%d\t%d\t%d\t%+.2f\t%.1f\t%+.1f\n",
			e.K, e.ParityFrames, e.Container,
			100*float64(e.Container-base.Container)/float64(base.Container),
			tput, 100*(tput-baseTput)/baseTput)
	}
	_ = tw.Flush() // display path: errors on w are not recoverable here
}
