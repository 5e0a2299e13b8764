package experiments

import (
	"fmt"
	"io"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/fpzip"
)

// TableIIBounds are the six point-wise relative bounds of Table II.
var TableIIBounds = []float64{1e-4, 1e-3, 1e-2, 0.1, 0.2, 0.3}

// Bases are the three logarithm bases of the base study.
var Bases = []repro.LogBase{repro.Base2, repro.BaseE, repro.Base10}

// TableIIResult is the compression ratio of SZ_T per (field, bound, base).
type TableIIResult struct {
	Fields []string
	Bounds []float64
	// Ratio[fieldIdx][boundIdx][baseIdx]
	Ratio [][][]float64
}

// TableII reproduces Table II: the influence of the logarithm base on
// SZ_T's compression ratio over two NYX fields.
func TableII(cfg Config) (*TableIIResult, error) {
	density, velocity := nyxPair(cfg)
	fields := []datagen.Field{density, velocity}
	res := &TableIIResult{Bounds: TableIIBounds}
	for _, f := range fields {
		res.Fields = append(res.Fields, f.Name)
		perBound := make([][]float64, 0, len(TableIIBounds))
		for _, eb := range TableIIBounds {
			perBase := make([]float64, 0, len(Bases))
			for _, base := range Bases {
				m, err := run(&f, eb, repro.SZT, &repro.Options{Base: base})
				if err != nil {
					return nil, err
				}
				if m.Stats.Max > eb {
					return nil, fmt.Errorf("TableII: bound violated (%g > %g)", m.Stats.Max, eb)
				}
				perBase = append(perBase, m.Ratio())
			}
			perBound = append(perBound, perBase)
		}
		res.Ratio = append(res.Ratio, perBound)
	}
	return res, nil
}

// Print renders the table in the paper's layout.
func (r *TableIIResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Table II: compression ratio of different bases for SZ_T (NYX)")
	tw := newTabWriter(w)
	fmt.Fprintf(tw, "fields")
	for _, f := range r.Fields {
		fmt.Fprintf(tw, "\t%s\t\t", f)
	}
	fmt.Fprintln(tw)
	fmt.Fprintf(tw, "log bases")
	for range r.Fields {
		fmt.Fprintf(tw, "\t2\te\t10")
	}
	fmt.Fprintln(tw)
	for bi, eb := range r.Bounds {
		fmt.Fprintf(tw, "%g", eb)
		for fi := range r.Fields {
			for _, cr := range r.Ratio[fi][bi] {
				fmt.Fprintf(tw, "\t%.3f", cr)
			}
		}
		fmt.Fprintln(tw)
	}
	_ = tw.Flush() // display path: errors on w are not recoverable here
}

// TableIIIResult holds the transform overhead per base (Table III).
type TableIIIResult struct {
	Fields []string
	// PreSeconds and PostSeconds are indexed [fieldIdx][baseIdx].
	PreSeconds  [][]float64
	PostSeconds [][]float64
}

// TableIII reproduces Table III: forward (pre-processing) and inverse
// (post-processing) transform time per logarithm base. Base 10's inverse
// requires Pow(10, x), which the paper found (and this reproduces) to be
// far slower than Exp2/Exp.
func TableIII(cfg Config) (*TableIIIResult, error) {
	density, velocity := nyxPair(cfg)
	fields := []datagen.Field{density, velocity}
	const eb = 1e-3
	res := &TableIIIResult{}
	reps := 3
	for _, f := range fields {
		res.Fields = append(res.Fields, f.Name)
		var pre, post []float64
		for _, base := range Bases {
			opts := &core.Options{Base: base}
			var preBest, postBest time.Duration
			for rep := 0; rep < reps; rep++ {
				t0 := time.Now()
				tr, err := core.Forward(f.Data, eb, opts)
				if err != nil {
					return nil, err
				}
				dPre := time.Since(t0)

				hdr := tr.AppendHeader(nil)
				si, _, err := core.ParseHeader(hdr)
				if err != nil {
					return nil, err
				}
				t0 = time.Now()
				if _, err := si.Inverse(tr.Log, nil); err != nil {
					return nil, err
				}
				dPost := time.Since(t0)
				if rep == 0 || dPre < preBest {
					preBest = dPre
				}
				if rep == 0 || dPost < postBest {
					postBest = dPost
				}
			}
			pre = append(pre, preBest.Seconds())
			post = append(post, postBest.Seconds())
		}
		res.PreSeconds = append(res.PreSeconds, pre)
		res.PostSeconds = append(res.PostSeconds, post)
	}
	return res, nil
}

// Print renders Table III.
func (r *TableIIIResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Table III: transform overhead of different bases (NYX)")
	tw := newTabWriter(w)
	fmt.Fprintf(tw, "fields")
	for _, f := range r.Fields {
		fmt.Fprintf(tw, "\t%s\t\t", f)
	}
	fmt.Fprintln(tw)
	fmt.Fprintf(tw, "log bases")
	for range r.Fields {
		fmt.Fprintf(tw, "\t2\te\t10")
	}
	fmt.Fprintln(tw)
	fmt.Fprintf(tw, "pre-processing time(s)")
	for fi := range r.Fields {
		for _, s := range r.PreSeconds[fi] {
			fmt.Fprintf(tw, "\t%.4f", s)
		}
	}
	fmt.Fprintln(tw)
	fmt.Fprintf(tw, "post-processing time(s)")
	for fi := range r.Fields {
		for _, s := range r.PostSeconds[fi] {
			fmt.Fprintf(tw, "\t%.4f", s)
		}
	}
	fmt.Fprintln(tw)
	_ = tw.Flush() // display path: errors on w are not recoverable here
}

// TableIVBounds are the three bounds of the strict error-bound test.
var TableIVBounds = []float64{1e-3, 1e-2, 1e-1}

// TableIVRow is one compressor × field × bound entry of Table IV.
type TableIVRow struct {
	Bound    float64
	Type     string // "prediction" or "transform"
	Algo     repro.Algorithm
	Field    string
	Settings string
	Bounded  string
	AvgE     float64
	MaxE     float64
	Ratio    float64
}

// TableIV reproduces the strict error-bound test on the two NYX fields:
// which compressors respect the requested point-wise relative bound, with
// what average/maximum error and at what ratio.
func TableIV(cfg Config) ([]TableIVRow, error) {
	density, velocity := nyxPair(cfg)
	fields := []datagen.Field{density, velocity}
	type entry struct {
		algo repro.Algorithm
		typ  string
	}
	entries := []entry{
		{repro.ISABELA, "prediction"},
		{repro.FPZIP, "prediction"},
		{repro.SZPWR, "prediction"},
		{repro.SZT, "prediction"},
		{repro.ZFPP, "transform"},
		{repro.ZFPT, "transform"},
	}
	var rows []TableIVRow
	for _, eb := range TableIVBounds {
		for _, e := range entries {
			for _, f := range fields {
				m, err := run(&f, eb, e.algo, nil)
				if err != nil {
					return nil, err
				}
				rows = append(rows, TableIVRow{
					Bound:    eb,
					Type:     e.typ,
					Algo:     e.algo,
					Field:    f.Name,
					Settings: settingsFor(e.algo, eb),
					Bounded:  fmtPct(m.Stats.BoundedFrac, m.Stats.ZeroPerturbed),
					AvgE:     m.Stats.Avg,
					MaxE:     m.Stats.Max,
					Ratio:    m.Ratio(),
				})
			}
		}
	}
	return rows, nil
}

func settingsFor(algo repro.Algorithm, eb float64) string {
	switch algo {
	case repro.FPZIP:
		p, _ := fpzip.PrecisionForRelBound(eb)
		return fmt.Sprintf("-p %d", p)
	case repro.ZFPP:
		return fmt.Sprintf("-p auto(%g)", eb)
	case repro.ISABELA:
		return fmt.Sprintf("%g", eb)
	default:
		return fmt.Sprintf("-P %g", eb)
	}
}

// PrintTableIV renders Table IV.
func PrintTableIV(w io.Writer, rows []TableIVRow) {
	fmt.Fprintln(w, "Table IV: point-wise relative error bound on 2 NYX fields")
	tw := newTabWriter(w)
	fmt.Fprintln(tw, "pwr_eb\ttype\tname\tfield\tsettings\tbounded\tAvg E\tMax E\tCR")
	for _, r := range rows {
		fmt.Fprintf(tw, "%g\t%s\t%s\t%s\t%s\t%s\t%.2e\t%.2e\t%.2f\n",
			r.Bound, r.Type, r.Algo, r.Field, r.Settings, r.Bounded, r.AvgE, r.MaxE, r.Ratio)
	}
	_ = tw.Flush() // display path: errors on w are not recoverable here
}
