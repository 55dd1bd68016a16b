package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"rowsort/internal/vector"
	"rowsort/internal/workload"
)

// TestQuickRandomSchemasAndSpecs is the sorter's property test: random
// schemas, random data (with NULLs), random sort specifications and random
// tuning options must always produce the oracle's order.
func TestQuickRandomSchemasAndSpecs(t *testing.T) {
	typePool := []vector.Type{
		vector.Bool, vector.Int8, vector.Int16, vector.Int32, vector.Int64,
		vector.Uint8, vector.Uint16, vector.Uint32, vector.Uint64,
		vector.Float32, vector.Float64, vector.Varchar,
	}
	check := func(seed uint64) bool {
		rng := workload.NewRNG(seed)
		numCols := 1 + rng.Intn(6)
		schema := make(vector.Schema, numCols)
		for c := range schema {
			schema[c] = vector.Column{
				Name: fmt.Sprintf("c%d", c),
				Type: typePool[rng.Intn(len(typePool))],
			}
		}
		n := rng.Intn(4000)
		tbl := vector.NewTable(schema)
		for start := 0; start < n; start += vector.DefaultVectorSize {
			count := min(vector.DefaultVectorSize, n-start)
			chunk := vector.NewChunk(schema, count)
			for r := 0; r < count; r++ {
				for c := range schema {
					appendRandomValue(chunk.Vectors[c], rng)
				}
			}
			if err := tbl.AppendChunk(chunk); err != nil {
				t.Fatal(err)
			}
		}

		numKeys := 1 + rng.Intn(numCols)
		keys := make([]SortColumn, numKeys)
		for i := range keys {
			keys[i] = SortColumn{
				Column:     rng.Intn(numCols),
				Descending: rng.Intn(2) == 1,
				NullsLast:  rng.Intn(2) == 1,
			}
			if rng.Intn(4) == 0 {
				keys[i].PrefixLen = 1 + rng.Intn(6) // stress string truncation
			}
		}
		s, err := NewSorter(tbl.Schema, keys, Options{
			Threads: 1 + rng.Intn(4),
			RunSize: 64 + rng.Intn(2000),
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		defer s.Close()
		// One sort in four runs every run through pdqsort and the comparator,
		// whatever its rule would be.
		s.pinPdqsort = rng.Intn(4) == 0
		got, err := sortTable(s, tbl)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkSorted(t, tbl, got, keys, fmt.Sprintf("fuzz seed %d", seed))
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if testing.Short() {
		cfg.MaxCount = 8
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// appendRandomValue appends a random (possibly NULL) value of v's type,
// biased toward small domains so ties and tie-breaks are common.
func appendRandomValue(v *vector.Vector, rng *workload.RNG) {
	if rng.Float64() < 0.12 {
		v.AppendNull()
		return
	}
	small := rng.Intn(2) == 0 // small domains produce ties
	switch v.Type() {
	case vector.Bool:
		v.AppendBool(rng.Intn(2) == 1)
	case vector.Int8:
		v.AppendInt8(int8(rng.Uint32()))
	case vector.Int16:
		v.AppendInt16(int16(rng.Uint32()))
	case vector.Int32:
		if small {
			v.AppendInt32(int32(rng.Intn(8)) - 4)
		} else {
			v.AppendInt32(int32(rng.Uint32()))
		}
	case vector.Int64:
		v.AppendInt64(int64(rng.Uint64()))
	case vector.Uint8:
		v.AppendUint8(uint8(rng.Uint32()))
	case vector.Uint16:
		v.AppendUint16(uint16(rng.Uint32()))
	case vector.Uint32:
		if small {
			v.AppendUint32(uint32(rng.Intn(8)))
		} else {
			v.AppendUint32(rng.Uint32())
		}
	case vector.Uint64:
		v.AppendUint64(rng.Uint64())
	case vector.Float32:
		v.AppendFloat32(float32(rng.Intn(16)))
	case vector.Float64:
		v.AppendFloat64(rng.Float64() * 10)
	case vector.Varchar:
		letters := "abAB"
		l := rng.Intn(20)
		b := make([]byte, l)
		for i := range b {
			b[i] = letters[rng.Intn(len(letters))]
		}
		v.AppendString(string(b))
	}
}
