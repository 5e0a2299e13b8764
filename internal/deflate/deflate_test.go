package deflate

import (
	"bytes"
	"compress/flate"
	"io"
	"sync"
	"testing"
)

func TestRoundTripMatchesFreshWriter(t *testing.T) {
	for _, src := range [][]byte{
		nil,
		[]byte("a"),
		bytes.Repeat([]byte("pooled flate state "), 4000),
		bytes.Repeat([]byte{0, 1, 2, 3, 250}, 70000),
	} {
		for pass := 0; pass < 3; pass++ { // later passes reuse pooled state
			got, err := Compress(src)
			if err != nil {
				t.Fatal(err)
			}
			var fresh bytes.Buffer
			zw, err := flate.NewWriter(&fresh, flate.BestSpeed)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := zw.Write(src); err != nil {
				t.Fatal(err)
			}
			if err := zw.Close(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, fresh.Bytes()) {
				t.Fatalf("len %d pass %d: pooled writer's bytes differ from a fresh writer's", len(src), pass)
			}
			back, err := Decompress(got, int64(len(src))+1)
			if err != nil || !bytes.Equal(back, src) {
				t.Fatalf("len %d pass %d: round trip failed: %v", len(src), pass, err)
			}
		}
	}
}

func TestDecompressLimitAndCorruption(t *testing.T) {
	src := bytes.Repeat([]byte("limit "), 1000)
	z, err := Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := Decompress(z, 100); err != nil || len(got) != 100 {
		t.Fatalf("limit 100: %d bytes, err %v", len(got), err)
	}
	if _, err := Decompress(z[:len(z)/2], 1<<20); err == nil {
		t.Fatal("truncated stream decoded without error")
	}
	// A failed decode leaves pooled state that must still decode cleanly.
	if got, err := Decompress(z, 1<<20); err != nil || !bytes.Equal(got, src) {
		t.Fatalf("after a failed decode: %v", err)
	}
	if _, err := Decompress([]byte{0xff, 0xff, 0xff}, 1<<20); err == nil || err == io.EOF {
		t.Fatalf("garbage: err = %v", err)
	}
}

func TestConcurrentUse(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			src := bytes.Repeat([]byte{byte(g), 1, 2}, 5000+g)
			for i := 0; i < 20; i++ {
				z, err := Compress(src)
				if err != nil {
					t.Error(err)
					return
				}
				back, err := Decompress(z, 1<<20)
				if err != nil || !bytes.Equal(back, src) {
					t.Errorf("goroutine %d: round trip failed: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
