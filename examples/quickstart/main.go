// Quickstart: compress a scientific field under a point-wise relative
// error bound with the paper's transform scheme (SZ_T), decompress it and
// verify the bound.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"repro"
)

func main() {
	// A wide-dynamic-range positive field (lognormal) — the motivating use
	// case for point-wise relative bounds: small values carry detail an
	// absolute bound would destroy.
	const side = 48
	dims := []int{side, side, side}
	rng := rand.New(rand.NewSource(1))
	data := make([]float64, side*side*side)
	for i := range data {
		data[i] = math.Exp(rng.NormFloat64()*2 - 1)
	}

	// Every decompressed value will be within 0.1% of the original.
	const relBound = 1e-3

	buf, err := repro.Compress(data, dims, relBound, repro.SZT, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compressed %d values: %d -> %d bytes (ratio %.2f)\n",
		len(data), len(data)*8, len(buf), float64(len(data)*8)/float64(len(buf)))

	dec, decDims, err := repro.Decompress(buf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("decompressed dims: %v\n", decDims)

	maxRel := 0.0
	for i := range data {
		if data[i] == 0 { // exact zero skip mirrors the bound definition
			continue
		}
		if r := math.Abs(dec[i]-data[i]) / math.Abs(data[i]); r > maxRel {
			maxRel = r
		}
	}
	fmt.Printf("max point-wise relative error: %.3g (bound %.3g)\n", maxRel, relBound)
	if maxRel > relBound {
		log.Fatal("bound violated!")
	}
	fmt.Println("bound respected ✓")

	// Compare against the block-wise baseline at the same bound.
	pwr, err := repro.Compress(data, dims, relBound, repro.SZPWR, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SZ_T %d bytes vs SZ_PWR %d bytes (%.1f%% smaller)\n",
		len(buf), len(pwr), 100*(1-float64(len(buf))/float64(len(pwr))))
}
