package mergepath

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"testing"

	"rowsort/internal/workload"
)

func benchRun(n, width int, seed uint64) Run {
	rng := workload.NewRNG(seed)
	vals := make([]uint32, n)
	for i := range vals {
		vals[i] = rng.Uint32()
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	data := make([]byte, n*width)
	for i, v := range vals {
		binary.BigEndian.PutUint32(data[i*width:], v)
	}
	return Run{Data: data, Width: width}
}

func BenchmarkParallelMerge(b *testing.B) {
	a := benchRun(1<<16, 8, 1)
	c := benchRun(1<<16, 8, 2)
	dst := make([]byte, len(a.Data)+len(c.Data))
	for _, p := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			b.SetBytes(int64(len(dst)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ParallelMerge(dst, a, c, nil, p)
			}
		})
	}
}

// benchKeyRuns builds k sorted runs of rows width-byte rows with kw-byte
// keys: a constant first byte (the NULL indicator of a normalized key) and
// random bytes after it, drawn from a pool of distinct keys when distinct > 0
// (duplicate-heavy) and independently otherwise. The 4 bytes after the key
// hold the row's index in its run, like the sorter's payload references.
func benchKeyRuns(k, rows, width, kw, distinct int, seed uint64) []Run {
	rng := workload.NewRNG(seed)
	randKey := func(key []byte) {
		key[0] = 1
		for j := 1; j < kw; j += 4 {
			var w [4]byte
			binary.BigEndian.PutUint32(w[:], rng.Uint32())
			copy(key[j:kw], w[:])
		}
	}
	pool := make([]byte, distinct*kw)
	for i := 0; i < distinct; i++ {
		randKey(pool[i*kw : (i+1)*kw])
	}
	runs := make([]Run, k)
	for r := range runs {
		keys := make([][]byte, rows)
		for i := range keys {
			if distinct > 0 {
				d := int(rng.Uint32()) % distinct
				keys[i] = pool[d*kw : (d+1)*kw]
			} else {
				keys[i] = make([]byte, kw)
				randKey(keys[i])
			}
		}
		sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
		data := make([]byte, rows*width)
		for i, key := range keys {
			row := data[i*width : (i+1)*width]
			copy(row, key)
			binary.LittleEndian.PutUint32(row[kw:], uint32(i))
		}
		runs[r] = Run{Data: data, Width: width}
	}
	return runs
}

// BenchmarkKWayMergeOVC times the coded loser tree out of cache, at the
// three run shapes the repository benchmark's workloads hand it
// (mem-uniform-int, mem-customer-str, ext-catalog-spill), against the
// reference tree it replaced (precomputed per-run code arrays included in
// the reference's time, as they were in the old KWayMergeOVC).
func BenchmarkKWayMergeOVC(b *testing.B) {
	for _, sh := range []struct {
		name                         string
		k, rows, width, kw, distinct int
	}{
		{"16x128Ki/w24/key9", 16, 1 << 17, 24, 9, 0},
		{"8x128Ki/w32/key28/dup", 8, 1 << 17, 32, 28, 1 << 14},
		{"16x64Ki/w32/key20", 16, 1 << 16, 32, 20, 0},
	} {
		runs := benchKeyRuns(sh.k, sh.rows, sh.width, sh.kw, sh.distinct, 7)
		total := sh.k * sh.rows
		dst := make([]byte, total*sh.width)
		for _, tree := range []struct {
			name  string
			merge func()
		}{
			{"packed", func() { KWayMergeOVC(dst, runs, sh.kw, nil, nil) }},
			{"reference", func() { refKWayMergeOVC(dst, runs, sh.kw, nil) }},
		} {
			b.Run(sh.name+"/"+tree.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					tree.merge()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*total), "ns/row")
			})
		}
	}
}

func BenchmarkSplitPoint(b *testing.B) {
	a := benchRun(1<<18, 8, 3)
	c := benchRun(1<<18, 8, 4)
	total := a.Len() + c.Len()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SplitPoint(a, c, (i*7919)%total, nil)
	}
}
