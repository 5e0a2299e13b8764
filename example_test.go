package repro_test

import (
	"bytes"
	"fmt"
	"math"

	"repro"
)

// ExampleCompress shows the basic point-wise-relative round trip with the
// paper's transform scheme.
func ExampleCompress() {
	data := []float64{1.0, 0.001, 250.0, -3.5, 0.0, 1e-6}
	buf, err := repro.Compress(data, []int{6}, 1e-3, repro.SZT, nil)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	dec, dims, err := repro.Decompress(buf)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	worst := 0.0
	for i, o := range data {
		if o == 0 {
			continue
		}
		if r := math.Abs(dec[i]-o) / math.Abs(o); r > worst {
			worst = r
		}
	}
	fmt.Println("dims:", dims)
	fmt.Println("zero preserved:", dec[4] == 0)
	fmt.Println("within 0.1%:", worst <= 1e-3)
	// Output:
	// dims: [6]
	// zero preserved: true
	// within 0.1%: true
}

// ExampleAlgorithmOf shows stream introspection.
func ExampleAlgorithmOf() {
	buf, _ := repro.Compress([]float64{1, 2, 3, 4}, []int{4}, 0.01, repro.FPZIP, nil)
	algo, _ := repro.AlgorithmOf(buf)
	fmt.Println(algo)
	// Output:
	// FPZIP
}

// ExampleArchiveStreamWriter bundles two fields into one snapshot
// archive in memory and reads one back by name.
func ExampleArchiveStreamWriter() {
	var archive bytes.Buffer
	w, err := repro.NewArchiveStreamWriter(&archive)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	density, _ := repro.Compress([]float64{0.1, 0.2, 0.4, 0.8}, []int{4}, 1e-3, repro.SZT, nil)
	velocity, _ := repro.Compress([]float64{-10, 20, -30, 40}, []int{4}, 1e-3, repro.SZT, nil)
	_ = w.AddCompressed("density", density)
	_ = w.AddCompressed("velocity", velocity)
	if err := w.Close(); err != nil {
		fmt.Println("error:", err)
		return
	}

	r, err := repro.OpenArchive(archive.Bytes())
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("fields:", r.Fields())
	dec, _, _ := r.Field("velocity")
	fmt.Println("velocity sign pattern ok:", dec[0] < 0 && dec[1] > 0)
	// Output:
	// fields: [density velocity]
	// velocity sign pattern ok: true
}

// ExampleCompressParallelOpts compresses an in-memory field with a
// worker pool into a self-describing stream container.
func ExampleCompressParallelOpts() {
	data := make([]float64, 64*64)
	for i := range data {
		data[i] = 1 + float64(i%64)*0.01
	}
	buf, err := repro.CompressParallelOpts(data, []int{64, 64}, 1e-3, repro.SZT,
		repro.WithWorkers(4), repro.WithChunkRows(16))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	dec, dims, err := repro.DecompressAny(buf)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("dims:", dims, "points:", len(dec))
	// Output:
	// dims: [64 64] points: 4096
}
