package normkey

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// fcRows builds n sorted rows of the given strides: a big-endian counter
// key (dense or duplicate-heavy) plus a distinct tail per row.
func fcRows(n, rowWidth, keyWidth, dupEvery int) []byte {
	keys := make([]byte, n*rowWidth)
	for i := 0; i < n; i++ {
		v := uint32(i)
		if dupEvery > 1 {
			v = uint32(i / dupEvery)
		}
		binary.BigEndian.PutUint32(keys[i*rowWidth:], v)
		for b := keyWidth; b < rowWidth; b++ {
			keys[i*rowWidth+b] = byte(i + b)
		}
	}
	return keys
}

func TestFrontCodeRoundTrip(t *testing.T) {
	cases := []struct {
		name               string
		n, rowW, keyW, dup int
	}{
		{"dense counter", 1000, 16, 8, 1},
		{"duplicate heavy", 1000, 16, 8, 16},
		{"single row", 1, 16, 8, 1},
		{"two rows", 2, 24, 12, 1},
		{"key fills row", 64, 8, 8, 4},
	}
	for _, c := range cases {
		keys := fcRows(c.n, c.rowW, c.keyW, c.dup)
		enc := AppendFrontCoded(nil, keys, c.rowW, c.keyW, c.n)
		dst := make([]byte, len(keys))
		if err := DecodeFrontCoded(dst, enc, c.rowW, c.keyW, c.n); err != nil {
			t.Fatalf("%s: decode: %v", c.name, err)
		}
		if !bytes.Equal(dst, keys) {
			t.Fatalf("%s: round trip mismatch", c.name)
		}
	}
}

func TestFrontCodeRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 50; iter++ {
		n := 1 + rng.Intn(200)
		keyW := 1 + rng.Intn(20)
		rowW := keyW + rng.Intn(16)
		keys := make([]byte, n*rowW)
		for i := range keys {
			keys[i] = byte(rng.Intn(4)) // small alphabet: long shared prefixes
		}
		enc := AppendFrontCoded(nil, keys, rowW, keyW, n)
		dst := make([]byte, len(keys))
		if err := DecodeFrontCoded(dst, enc, rowW, keyW, n); err != nil {
			t.Fatalf("iter %d: decode: %v", iter, err)
		}
		if !bytes.Equal(dst, keys) {
			t.Fatalf("iter %d: round trip mismatch", iter)
		}
	}
}

func TestFrontCodeShrinksDuplicates(t *testing.T) {
	keys := fcRows(1024, 16, 8, 32)
	enc := AppendFrontCoded(nil, keys, 16, 8, 1024)
	if len(enc) >= len(keys) {
		t.Fatalf("duplicate-heavy block did not shrink: %d >= %d", len(enc), len(keys))
	}
}

func TestFrontCodeDecodeRejectsCorrupt(t *testing.T) {
	keys := fcRows(100, 16, 8, 4)
	enc := AppendFrontCoded(nil, keys, 16, 8, 100)
	dst := make([]byte, len(keys))
	if err := DecodeFrontCoded(dst, enc[:len(enc)-3], 16, 8, 100); err == nil {
		t.Fatal("truncated input decoded without error")
	}
	if err := DecodeFrontCoded(dst, append(append([]byte(nil), enc...), 0), 16, 8, 100); err == nil {
		t.Fatal("oversized input decoded without error")
	}
	bad := append([]byte(nil), enc...)
	bad[0] = 9 // row 0 must have prefix length 0
	if err := DecodeFrontCoded(dst, bad, 16, 8, 100); err == nil {
		t.Fatal("invalid first-row prefix decoded without error")
	}
}
