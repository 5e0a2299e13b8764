package grid

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitio"
)

func TestValidate(t *testing.T) {
	cases := []struct {
		dims []int
		n    int
		ok   bool
	}{
		{[]int{10}, 10, true},
		{[]int{2, 5}, 10, true},
		{[]int{2, 5, 3}, 30, true},
		{[]int{2, 5}, 11, false},
		{[]int{}, 0, false},
		{[]int{0}, 0, false},
		{[]int{-3}, -3, false},
		{[]int{1, 2, 3, 4, 5}, 120, false}, // rank > MaxDims
		{[]int{7}, -1, true},               // n < 0 skips length check
	}
	for _, tc := range cases {
		err := Validate(tc.dims, tc.n)
		if (err == nil) != tc.ok {
			t.Errorf("Validate(%v, %d) = %v, want ok=%v", tc.dims, tc.n, err, tc.ok)
		}
	}
}

func TestValidateOverflow(t *testing.T) {
	if err := Validate([]int{1 << 31, 1 << 31, 1 << 31}, -1); err == nil {
		t.Fatal("expected overflow error")
	}
}

func TestStrides(t *testing.T) {
	s := Strides([]int{4, 3, 5})
	want := []int{15, 5, 1}
	if !EqualDims(s, want) {
		t.Fatalf("Strides = %v, want %v", s, want)
	}
	if !EqualDims(Strides([]int{9}), []int{1}) {
		t.Fatal("1D strides wrong")
	}
}

func TestBlocksCoverExactly(t *testing.T) {
	dims := []int{7, 10, 5}
	seen := make([]int, Size(dims))
	strides := Strides(dims)
	err := Blocks(dims, 4, func(b Block) error {
		b.ForEach(strides, func(lin int) { seen[lin]++ })
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

func TestBlocksClipping(t *testing.T) {
	var blocks []Block
	if err := Blocks([]int{5}, 4, func(b Block) error {
		// Blocks reuses b, so keep a copy.
		blocks = append(blocks, Block{
			Origin: append([]int(nil), b.Origin...),
			Extent: append([]int(nil), b.Extent...),
		})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 2 {
		t.Fatalf("got %d blocks, want 2", len(blocks))
	}
	if blocks[1].Extent[0] != 1 || blocks[1].Origin[0] != 4 {
		t.Fatalf("boundary block = %+v", blocks[1])
	}
	if blocks[0].Size() != 4 || blocks[1].Size() != 1 {
		t.Fatal("block sizes wrong")
	}
}

func TestBlocksBadSide(t *testing.T) {
	if err := Blocks([]int{4}, 0, func(Block) error { return nil }); err == nil {
		t.Fatal("expected error for side=0")
	}
}

// Property: blocked iteration visits each linear index exactly once for
// random shapes and block sides.
func TestQuickBlocksPartition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rank := rng.Intn(3) + 1
		dims := make([]int, rank)
		for i := range dims {
			dims[i] = rng.Intn(13) + 1
		}
		side := rng.Intn(5) + 1
		seen := make([]int, Size(dims))
		strides := Strides(dims)
		if err := Blocks(dims, side, func(b Block) error {
			b.ForEach(strides, func(lin int) { seen[lin]++ })
			return nil
		}); err != nil {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestForEachOrderRowMajor(t *testing.T) {
	dims := []int{2, 3}
	strides := Strides(dims)
	b := Block{Origin: []int{0, 1}, Extent: []int{2, 2}}
	var got []int
	b.ForEach(strides, func(lin int) { got = append(got, lin) })
	want := []int{1, 2, 4, 5}
	if !EqualDims(got, want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
}

func TestParseDimsRoundTrip(t *testing.T) {
	for _, dims := range [][]int{{1}, {512}, {16, 32}, {8, 8, 8}, {2, 4, 8, 8}, {1 << 40}} {
		buf := AppendDims([]byte{0xEE}, dims)
		buf = append(buf, 0xFF) // trailing bytes are the caller's
		got, used, err := ParseDims(buf[1:], MaxDims)
		if err != nil || !EqualDims(got, dims) || used != len(buf)-2 {
			t.Fatalf("%v: got %v, used %d of %d, err %v", dims, got, used, len(buf)-2, err)
		}
	}
}

func TestParseDimsRefuses(t *testing.T) {
	uv := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = bitio.AppendUvarint(b, v)
		}
		return b
	}
	for name, tc := range map[string]struct {
		buf     []byte
		maxRank int
	}{
		"empty":          {nil, MaxDims},
		"rank zero":      {uv(0), MaxDims},
		"rank over cap":  {uv(4, 2, 2, 2, 2), 3},
		"zero extent":    {uv(2, 3, 0), MaxDims},
		"extent > 2^40":  {uv(1, 1<<40+1), MaxDims},
		"truncated":      {uv(3, 2, 2), MaxDims},
		"count overflow": {uv(2, 1<<40, 1<<40), MaxDims},
	} {
		if _, _, err := ParseDims(tc.buf, tc.maxRank); !errors.Is(err, ErrBadDims) {
			t.Errorf("%s: err %v, want ErrBadDims", name, err)
		}
	}
}
