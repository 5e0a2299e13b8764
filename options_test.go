package repro

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/datagen"
	"repro/internal/testutil"
)

// TestBudgetDerivation pins the WithMemoryBudget arithmetic:
// budget ≥ chunkRows × rowStride × (8×(workers+2) + elemSize).
func TestBudgetDerivation(t *testing.T) {
	t.Run("chunkRows", func(t *testing.T) {
		// 1 MiB budget, 1024-float rows, float64 I/O, 4 workers:
		// perRow = 1024 × (8×6 + 8) = 57344 → 18 rows.
		if got := budgetChunkRows(1<<20, 1024, 8, 4); got != 18 {
			t.Errorf("budgetChunkRows = %d, want 18", got)
		}
		// One row does not fit: 0 signals "shed workers".
		if got := budgetChunkRows(1<<10, 1024, 8, 4); got != 0 {
			t.Errorf("budgetChunkRows under-row = %d, want 0", got)
		}
		// A huge budget still respects the chunk-elems ceiling.
		if got := budgetChunkRows(1<<62, 1024, 8, 1); int64(got)*1024 > budgetMaxChunkElems {
			t.Errorf("budgetChunkRows = %d rows exceeds the chunk-elems cap", got)
		}
	})
	t.Run("workers", func(t *testing.T) {
		// chunkElems 4096 float64: per = 32768, fixed = 32768+65536.
		// budget 1 MiB → (1048576-98304)/32768 = 29 → clamped to maxW.
		if got := budgetWorkersFor(1<<20, 4096, 8, 8); got != 8 {
			t.Errorf("budgetWorkersFor = %d, want clamp to 8", got)
		}
		if got := budgetWorkersFor(1<<20, 4096, 8, 64); got != 29 {
			t.Errorf("budgetWorkersFor = %d, want 29", got)
		}
		// Floor of one worker however tight the budget.
		if got := budgetWorkersFor(1, 4096, 8, 8); got != 1 {
			t.Errorf("budgetWorkersFor floor = %d, want 1", got)
		}
	})
	t.Run("tune", func(t *testing.T) {
		// Both knobs unset: prefer full workers, shrink rows.
		cfg := &StreamConfig{MemoryBudget: 1 << 20}
		cr, w := tuneCompressBudget(cfg, 1024, 8, 4)
		if w != 4 || cr != 18 {
			t.Errorf("tune(unset) = (%d rows, %d workers), want (18, 4)", cr, w)
		}
		// Budget below one row at any width: floor (1, 1).
		cfg = &StreamConfig{MemoryBudget: 16}
		if cr, w = tuneCompressBudget(cfg, 1024, 8, 4); cr != 1 || w != 1 {
			t.Errorf("tune(tiny) = (%d, %d), want (1, 1)", cr, w)
		}
		// Explicit chunk rows: budget sizes workers only.
		cfg = &StreamConfig{MemoryBudget: 1 << 20, ChunkRows: 4}
		if cr, w = tuneCompressBudget(cfg, 1024, 8, 64); cr != 4 || w != 29 {
			t.Errorf("tune(rows=4) = (%d, %d), want (4, 29)", cr, w)
		}
		// Explicit workers: budget sizes rows only.
		cfg = &StreamConfig{MemoryBudget: 1 << 20, Workers: 4}
		if cr, w = tuneCompressBudget(cfg, 1024, 8, 4); cr != 18 || w != 4 {
			t.Errorf("tune(workers=4) = (%d, %d), want (18, 4)", cr, w)
		}
		// Both explicit: the budget defers entirely.
		cfg = &StreamConfig{MemoryBudget: 1 << 10, ChunkRows: 7, Workers: 3}
		if cr, w = tuneCompressBudget(cfg, 1024, 8, 3); cr != 7 || w != 3 {
			t.Errorf("tune(explicit) = (%d, %d), want (7, 3)", cr, w)
		}
		// No budget: passthrough.
		cfg = &StreamConfig{ChunkRows: 5}
		if cr, w = tuneCompressBudget(cfg, 1024, 8, 2); cr != 5 || w != 2 {
			t.Errorf("tune(no budget) = (%d, %d), want (5, 2)", cr, w)
		}
	})
}

// TestMemoryBudgetErrors pins the typed rejection of negative budgets
// on both pipeline directions.
func TestMemoryBudgetErrors(t *testing.T) {
	defer testutil.NoLeak(t)()
	f := datagen.NYX(8, 2)[0]
	var w bytes.Buffer
	if _, err := CompressStreamOpts(bytes.NewReader(rawLE(f.Data)), &w, f.Dims, 1e-3, SZT, WithMemoryBudget(-1)); err == nil {
		t.Error("negative budget accepted on compress")
	}
	w.Reset()
	if _, err := CompressStreamOpts(bytes.NewReader(rawLE(f.Data)), &w, f.Dims, 1e-3, SZT); err != nil {
		t.Fatal(err)
	}
	if _, err := DecompressStreamOpts(bytes.NewReader(w.Bytes()), &bytes.Buffer{}, WithMemoryBudget(-1)); err == nil {
		t.Error("negative budget accepted on decompress")
	}
}

// TestDefaultChunkRowsRespectsMaxChunkBytes covers the fixed sizing
// rule: a container written under DecodeLimits L must decode under the
// same L, so the default chunk geometry caps raw chunk bytes at
// L.MaxChunkBytes.
func TestDefaultChunkRowsRespectsMaxChunkBytes(t *testing.T) {
	defer testutil.NoLeak(t)()
	// Unit: 64 KiB cap → 8192 elems → 8 rows of 1024.
	if got := defaultChunkRows(1000, 1024, 64<<10); got != 8 {
		t.Errorf("defaultChunkRows(cap 64Ki) = %d, want 8", got)
	}
	// No cap: the 256Ki-element target.
	if got := defaultChunkRows(1000, 1024, 0); got != 256 {
		t.Errorf("defaultChunkRows(no cap) = %d, want 256", got)
	}
	// Floor of one row even when a row exceeds the cap.
	if got := defaultChunkRows(1000, 1024, 8); got != 1 {
		t.Errorf("defaultChunkRows(tiny cap) = %d, want 1", got)
	}

	// Integration: the same limits that guided the write accept the
	// container on read. 512 rows × 256 floats = 1 MiB of raw data with
	// a 16 KiB chunk cap would have overflowed the old 256Ki-element
	// default (2 MiB chunks).
	f := make([]float64, 512*256)
	for i := range f {
		f[i] = 40*math.Sin(float64(i)/23) + 90
	}
	lim := &DecodeLimits{MaxElements: 1 << 20, MaxChunkBytes: 16 << 10}
	var w bytes.Buffer
	if _, err := CompressStreamOpts(bytes.NewReader(rawLE(f)), &w, []int{512, 256}, 1e-3, SZT, WithLimits(lim)); err != nil {
		t.Fatal(err)
	}
	if _, err := DecompressStreamOpts(bytes.NewReader(w.Bytes()), &bytes.Buffer{}, WithLimits(lim)); err != nil {
		t.Fatalf("round trip under the writing limits: %v", err)
	}
}

// TestConfigReuseIsSafe guards the resolve step against aliasing: the
// same option slice resolved twice (an ArchiveStreamWriter reusing its
// defaults across AddField calls) must not accumulate state.
func TestConfigReuseIsSafe(t *testing.T) {
	defer testutil.NoLeak(t)()
	opts := []StreamOption{WithChunkRows(1 << 20), WithMemoryBudget(1 << 20)}
	f := datagen.NYX(8, 9)[0]
	for i := 0; i < 2; i++ {
		var w bytes.Buffer
		if _, err := CompressStreamOpts(bytes.NewReader(rawLE(f.Data)), &w, f.Dims, 1e-3, SZT, opts...); err != nil {
			t.Fatalf("pass %d: %v", i, err)
		}
		cfg := resolveStreamConfig(opts)
		if cfg.ChunkRows != 1<<20 {
			t.Fatalf("pass %d mutated the resolved ChunkRows to %d", i, cfg.ChunkRows)
		}
	}
}

// TestNilOptionTolerated pins resolveStreamConfig's contract that nil
// entries (conditional wrapper slices) are skipped.
func TestNilOptionTolerated(t *testing.T) {
	cfg := resolveStreamConfig([]StreamOption{nil, WithWorkers(3), nil})
	if cfg.Workers != 3 || cfg.Ctx == nil {
		t.Fatalf("resolve with nils: %+v", cfg)
	}
}
