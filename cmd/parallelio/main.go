// Command parallelio runs the Figure 6 parallel dumping/loading experiment
// with a configurable cluster model: compression rates are measured with
// the real compressors on local cores; the parallel file system is the
// shared-bandwidth model from internal/pfs.
//
// Example:
//
//	parallelio -cores 1024,2048,4096 -rel 1e-2 -per-rank-gb 3 -peak-write-gbs 8
//
// With -stream the per-core rates are measured through the bounded-memory
// streaming pipeline (CompressStreamOpts/DecompressStreamOpts) instead of
// the in-memory compressors — the regime a rank dumping a field larger
// than its memory budget actually runs in.
package main

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"

	"repro"
	"repro/internal/datagen"
	"repro/internal/pfs"
)

func main() {
	var (
		coresFlag    = flag.String("cores", "1024,2048,4096", "comma list of core counts")
		rel          = flag.Float64("rel", 1e-2, "point-wise relative error bound")
		perRankGB    = flag.Float64("per-rank-gb", 3, "raw data per rank (GB)")
		peakWriteGBs = flag.Float64("peak-write-gbs", 8, "aggregate write bandwidth (GB/s)")
		peakReadGBs  = flag.Float64("peak-read-gbs", 10, "aggregate read bandwidth (GB/s)")
		side         = flag.Int("side", 64, "NYX cube side for the rate measurement")
		seed         = flag.Int64("seed", 20180704, "workload seed")
		stream       = flag.Bool("stream", false, "measure rates through the bounded-memory streaming pipeline")
		workers      = flag.Int("workers", 0, "streaming worker count (default GOMAXPROCS)")
	)
	flag.Parse()

	var coresList []int
	for _, c := range strings.Split(*coresFlag, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(c))
		if err != nil || v <= 0 {
			fatalf("bad core count %q", c)
		}
		coresList = append(coresList, v)
	}

	fields := datagen.NYX(*side, *seed)
	bytesPerRank := int64(*perRankGB * float64(1<<30))
	algos := []repro.Algorithm{repro.SZPWR, repro.FPZIP, repro.SZT}

	mode := "in-memory"
	if *stream {
		mode = "streaming"
	}
	fmt.Printf("parallel I/O model: %.0f GB/rank, pwr_eb=%g, NYX %d^3 sample (%d fields, %s rates)\n",
		*perRankGB, *rel, *side, len(fields), mode)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "cores\tcompressor\tCR\tcomp MB/s\tdecomp MB/s\tdump(s)\tload(s)\tvs raw dump")
	for _, algo := range algos {
		var totalRaw int
		var compSec, decSec, compBytes float64
		for i := range fields {
			f := &fields[i]
			compressFn := func() ([]byte, error) { return repro.Compress(f.Data, f.Dims, *rel, algo, nil) }
			decompressFn := func(buf []byte) error { _, _, err := repro.Decompress(buf); return err }
			if *stream {
				raw := rawLE(f.Data)
				compressFn = func() ([]byte, error) {
					var out bytes.Buffer
					_, err := repro.CompressStreamOpts(bytes.NewReader(raw), &out, f.Dims, *rel, algo,
						repro.WithWorkers(*workers))
					return out.Bytes(), err
				}
				decompressFn = func(buf []byte) error {
					_, err := repro.DecompressStreamOpts(bytes.NewReader(buf), io.Discard)
					return err
				}
			}
			rates, err := pfs.Measure(f.Bytes(), compressFn, decompressFn)
			if err != nil {
				fatalf("%v: %v", algo, err)
			}
			totalRaw += f.Bytes()
			compBytes += float64(f.Bytes()) / rates.Ratio
			compSec += float64(f.Bytes()) / rates.CompressRate
			decSec += float64(f.Bytes()) / rates.DecompressRate
		}
		ratio := float64(totalRaw) / compBytes
		compressRate := float64(totalRaw) / compSec
		decompressRate := float64(totalRaw) / decSec

		for _, cores := range coresList {
			sys := pfs.DefaultSystem(cores)
			sys.PeakWrite = *peakWriteGBs * 1e9
			sys.PeakRead = *peakReadGBs * 1e9
			dump, err := sys.DumpTime(bytesPerRank, int64(float64(bytesPerRank)/ratio), compressRate)
			if err != nil {
				fatalf("%v", err)
			}
			load, err := sys.LoadTime(bytesPerRank, int64(float64(bytesPerRank)/ratio), decompressRate)
			if err != nil {
				fatalf("%v", err)
			}
			raw, err := sys.RawDumpTime(bytesPerRank)
			if err != nil {
				fatalf("%v", err)
			}
			fmt.Fprintf(tw, "%d\t%s\t%.2f\t%.0f\t%.0f\t%.1f\t%.1f\t%.1fx\n",
				cores, algo, ratio, compressRate/1e6, decompressRate/1e6,
				dump.Total().Seconds(), load.Total().Seconds(),
				raw.Total().Seconds()/dump.Total().Seconds())
		}
	}
	_ = tw.Flush() // display path: errors on w are not recoverable here
}

// rawLE serializes a field to the little-endian float64 layout the
// streaming pipeline reads.
func rawLE(data []float64) []byte {
	raw := make([]byte, len(data)*8)
	for i, v := range data {
		binary.LittleEndian.PutUint64(raw[i*8:], math.Float64bits(v))
	}
	return raw
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "parallelio: "+format+"\n", args...)
	os.Exit(1)
}
