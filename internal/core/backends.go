package core

import (
	"repro/internal/sz"
	"repro/internal/zfp"
)

// SZBackend adapts the SZ compressor (absolute-error mode) as a transform
// backend; the combination is the paper's SZ_T.
type SZBackend struct {
	// Opts tunes the underlying SZ compressor (nil = defaults).
	Opts *sz.Options
}

// Name implements Backend.
func (SZBackend) Name() string { return "sz" }

// CompressAbs implements Backend.
func (b SZBackend) CompressAbs(data []float64, dims []int, bound float64) ([]byte, error) {
	return sz.CompressAbs(data, dims, bound, b.Opts)
}

// Decompress implements Backend.
func (SZBackend) Decompress(buf []byte) ([]float64, []int, error) {
	return sz.Decompress(buf)
}

// ZFPBackend adapts the ZFP compressor (fixed-accuracy mode) as a transform
// backend; the combination is the paper's ZFP_T.
type ZFPBackend struct{}

// Name implements Backend.
func (ZFPBackend) Name() string { return "zfp" }

// CompressAbs implements Backend.
func (ZFPBackend) CompressAbs(data []float64, dims []int, bound float64) ([]byte, error) {
	return zfp.CompressAccuracy(data, dims, bound)
}

// Decompress implements Backend.
func (ZFPBackend) Decompress(buf []byte) ([]float64, []int, error) {
	return zfp.Decompress(buf)
}

// defaultResolve maps the built-in backend names for Decompress.
func defaultResolve(name string) Backend {
	switch name {
	case "sz":
		return SZBackend{}
	case "zfp":
		return ZFPBackend{}
	default:
		return nil
	}
}
