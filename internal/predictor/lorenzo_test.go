package predictor

import (
	"math"
	"math/rand"
	"testing"
)

func TestNewFieldValidates(t *testing.T) {
	if _, err := NewField(make([]float64, 5), []int{2, 3}); err == nil {
		t.Fatal("expected length mismatch error")
	}
}

func TestPredict4DMultilinear(t *testing.T) {
	// 4D Lorenzo (15-corner inclusion–exclusion) is exact on any function
	// with no 4th-order cross term; use a sum of pairwise products.
	dims := []int{3, 4, 3, 5}
	buf := make([]float64, 3*4*3*5)
	val := func(t4, z, y, x int) float64 {
		a, b, c, d := float64(t4), float64(z), float64(y), float64(x)
		return 1 + 2*a + 3*b + 4*c + 5*d + a*b + 0.5*a*c + 0.25*b*d + 0.125*c*d
	}
	i := 0
	for t4 := 0; t4 < 3; t4++ {
		for z := 0; z < 4; z++ {
			for y := 0; y < 3; y++ {
				for x := 0; x < 5; x++ {
					buf[i] = val(t4, z, y, x)
					i++
				}
			}
		}
	}
	f, err := NewField(buf, dims)
	if err != nil {
		t.Fatal(err)
	}
	f.Walk(func(lin int, coord []int) {
		for _, c := range coord {
			if c == 0 {
				return
			}
		}
		if p := f.Predict(lin, coord); math.Abs(p-buf[lin]) > 1e-9 {
			t.Fatalf("4D prediction at %v = %v, want %v", coord, p, buf[lin])
		}
	})
}

func TestPredict1D(t *testing.T) {
	buf := []float64{3, 5, 0, 0}
	f, err := NewField(buf, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	if p := f.Predict(0, []int{0}); p != 0 {
		t.Fatalf("border prediction = %v", p)
	}
	if p := f.Predict(2, []int{2}); p != 5 {
		t.Fatalf("Predict(2) = %v, want 5", p)
	}
}

func TestPredict2DPlane(t *testing.T) {
	// On an exact plane v = 2x + 3y + 1 the 2D Lorenzo prediction is exact
	// for all interior points.
	dims := []int{6, 7}
	buf := make([]float64, 42)
	for y := 0; y < 6; y++ {
		for x := 0; x < 7; x++ {
			buf[y*7+x] = 2*float64(x) + 3*float64(y) + 1
		}
	}
	f, err := NewField(buf, dims)
	if err != nil {
		t.Fatal(err)
	}
	f.Walk(func(lin int, coord []int) {
		if coord[0] == 0 || coord[1] == 0 {
			return
		}
		if p := f.Predict(lin, coord); math.Abs(p-buf[lin]) > 1e-12 {
			t.Fatalf("interior prediction at %v = %v, want %v", coord, p, buf[lin])
		}
	})
}

func TestPredict3DTrilinear(t *testing.T) {
	// 3D Lorenzo is exact on any function of the form
	// a + bx + cy + dz + exy + fxz + gyz (no xyz term).
	dims := []int{4, 5, 6}
	buf := make([]float64, 4*5*6)
	val := func(z, y, x int) float64 {
		fz, fy, fx := float64(z), float64(y), float64(x)
		return 1 + 2*fx + 3*fy + 4*fz + 0.5*fx*fy + 0.25*fx*fz + 0.125*fy*fz
	}
	i := 0
	for z := 0; z < 4; z++ {
		for y := 0; y < 5; y++ {
			for x := 0; x < 6; x++ {
				buf[i] = val(z, y, x)
				i++
			}
		}
	}
	f, err := NewField(buf, dims)
	if err != nil {
		t.Fatal(err)
	}
	f.Walk(func(lin int, coord []int) {
		if coord[0] == 0 || coord[1] == 0 || coord[2] == 0 {
			return
		}
		if p := f.Predict(lin, coord); math.Abs(p-buf[lin]) > 1e-9 {
			t.Fatalf("3D prediction at %v = %v, want %v", coord, p, buf[lin])
		}
	})
}

func TestWalkVisitsAllInOrder(t *testing.T) {
	dims := []int{3, 4}
	f, err := NewField(make([]float64, 12), dims)
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	var lastCoord []int
	f.Walk(func(lin int, coord []int) {
		if lin != next {
			t.Fatalf("lin = %d, want %d", lin, next)
		}
		next++
		lastCoord = append(lastCoord[:0], coord...)
	})
	if next != 12 {
		t.Fatalf("visited %d, want 12", next)
	}
	if lastCoord[0] != 2 || lastCoord[1] != 3 {
		t.Fatalf("last coord = %v", lastCoord)
	}
}

func TestIntFieldMatchesFloatOnIntegers(t *testing.T) {
	dims := []int{5, 5, 5}
	n := 125
	rng := rand.New(rand.NewSource(1))
	fbuf := make([]float64, n)
	ibuf := make([]int64, n)
	for i := range fbuf {
		v := int64(rng.Intn(2000) - 1000)
		fbuf[i] = float64(v)
		ibuf[i] = v
	}
	ff, err := NewField(fbuf, dims)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := NewField(ibuf, dims)
	if err != nil {
		t.Fatal(err)
	}
	ff.Walk(func(lin int, coord []int) {
		pf := ff.Predict(lin, coord)
		pi := fi.Predict(lin, coord)
		if int64(pf) != pi {
			t.Fatalf("mismatch at %v: float %v vs int %d", coord, pf, pi)
		}
	})
}

func TestIntFieldValidates(t *testing.T) {
	if _, err := NewField(make([]int64, 3), []int{4}); err == nil {
		t.Fatal("expected length mismatch error")
	}
}

func BenchmarkPredict3D(b *testing.B) {
	dims := []int{64, 64, 64}
	buf := make([]float64, 64*64*64)
	rng := rand.New(rand.NewSource(2))
	for i := range buf {
		buf[i] = rng.Float64()
	}
	f, err := NewField(buf, dims)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sum float64
		f.Walk(func(lin int, coord []int) {
			sum += f.Predict(lin, coord)
		})
		_ = sum
	}
}

func TestIntField2DPlane(t *testing.T) {
	// Integer Lorenzo is exact on integer planes v = 2x + 3y + 1.
	dims := []int{5, 6}
	buf := make([]int64, 30)
	for y := 0; y < 5; y++ {
		for x := 0; x < 6; x++ {
			buf[y*6+x] = int64(2*x + 3*y + 1)
		}
	}
	f, err := NewField(buf, dims)
	if err != nil {
		t.Fatal(err)
	}
	f.Walk(func(lin int, coord []int) {
		if coord[0] == 0 || coord[1] == 0 {
			return
		}
		if p := f.Predict(lin, coord); p != buf[lin] {
			t.Fatalf("2D int prediction at %v = %d, want %d", coord, p, buf[lin])
		}
	})
}

func TestIntField1DBorder(t *testing.T) {
	f, err := NewField([]int64{7, 9, 11}, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	if p := f.Predict(0, []int{0}); p != 0 {
		t.Fatalf("border = %d", p)
	}
	if p := f.Predict(2, []int{2}); p != 9 {
		t.Fatalf("Predict(2) = %d", p)
	}
}

func TestIntFieldWalkOrder(t *testing.T) {
	f, err := NewField(make([]int64, 8), []int{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	f.Walk(func(lin int, coord []int) {
		if lin != next {
			t.Fatalf("lin %d want %d", lin, next)
		}
		next++
	})
	if next != 8 {
		t.Fatalf("visited %d", next)
	}
}

func TestIntField4DMatchesFloat(t *testing.T) {
	dims := []int{3, 3, 3, 3}
	n := 81
	rng := rand.New(rand.NewSource(6))
	fbuf := make([]float64, n)
	ibuf := make([]int64, n)
	for i := range fbuf {
		v := int64(rng.Intn(2000) - 1000)
		fbuf[i] = float64(v)
		ibuf[i] = v
	}
	ff, err := NewField(fbuf, dims)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := NewField(ibuf, dims)
	if err != nil {
		t.Fatal(err)
	}
	ff.Walk(func(lin int, coord []int) {
		if int64(ff.Predict(lin, coord)) != fi.Predict(lin, coord) {
			t.Fatalf("4D int/float mismatch at %v", coord)
		}
	})
}

func TestFieldDims(t *testing.T) {
	f, err := NewField(make([]float64, 6), []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	d := f.Dims()
	if len(d) != 2 || d[0] != 2 || d[1] != 3 {
		t.Fatalf("Dims = %v", d)
	}
}

func TestPredict2DBorders(t *testing.T) {
	buf := []float64{1, 2, 3, 4, 5, 6}
	f, err := NewField(buf, []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	// Top row: only left neighbor.
	if p := f.Predict(1, []int{0, 1}); p != 1 {
		t.Fatalf("top row = %v", p)
	}
	// Left column: only up neighbor.
	if p := f.Predict(3, []int{1, 0}); p != 1 {
		t.Fatalf("left col = %v", p)
	}
	// Origin: zero.
	if p := f.Predict(0, []int{0, 0}); p != 0 {
		t.Fatalf("origin = %v", p)
	}
}
