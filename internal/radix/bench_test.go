package radix

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

func BenchmarkSortByKeyWidth(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 1 << 15
	for _, keyW := range []int{4, 8, 16} {
		rowW := (keyW + 4 + 7) &^ 7
		base := makeRows(n, rowW, keyW, rng)
		b.Run(fmt.Sprintf("keyW=%d", keyW), func(b *testing.B) {
			data := make([]byte, len(base))
			b.SetBytes(int64(len(base)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(data, base)
				Sort(data, rowW, keyW)
			}
		})
	}
}

func BenchmarkSortDuplicateHeavy(b *testing.B) {
	// Few distinct keys: the single-bucket skip and small-bucket insertion
	// paths dominate.
	rng := rand.New(rand.NewSource(2))
	const n, rowW, keyW = 1 << 15, 16, 8
	base := make([]byte, n*rowW)
	for i := 0; i < n; i++ {
		base[i*rowW+6] = byte(rng.Intn(4))
		base[i*rowW+7] = byte(rng.Intn(4))
	}
	b.ReportAllocs()
	data := make([]byte, len(base))
	for i := 0; i < b.N; i++ {
		copy(data, base)
		Sort(data, rowW, keyW)
	}
}

// sorterShapes are the key rows the sorter hands to Sort on the benchmark's
// workloads: a validity byte before every value and a residence byte behind
// every name, a 4-byte payload reference or an inline payload behind the key,
// the row padded to a multiple of 8.
var sorterShapes = []struct {
	name       string
	keyW, rowW int
	fill       func(key []byte, rng *rand.Rand)
}{
	{"int64", 9, 24, func(key []byte, rng *rand.Rand) {
		key[0] = 1
		binary.BigEndian.PutUint64(key[1:], rng.Uint64())
	}},
	{"int32", 5, 16, func(key []byte, rng *rand.Rand) {
		key[0] = 1
		binary.BigEndian.PutUint32(key[1:], rng.Uint32())
	}},
	// Four int32 keys, the leading ones drawn from small domains.
	{"4xint32-lowcard", 20, 32, func(key []byte, rng *rand.Rand) {
		for i, domain := range []int{12, 200, 5000, 1 << 30} {
			key[5*i] = 1
			binary.BigEndian.PutUint32(key[5*i+1:], 0x80000000|uint32(rng.Intn(domain)))
		}
	}},
	// Two 12-byte zero-padded names, each one of a few hundred values, each
	// with the residence byte of a name its prefix holds.
	{"2xname", 28, 32, func(key []byte, rng *rand.Rand) {
		for i := 0; i < 2; i++ {
			key[14*i] = 1
			copy(key[14*i+1:14*i+13], benchNames[rng.Intn(len(benchNames))])
			key[14*i+13] = 0
		}
	}},
}

var benchNames = func() []string {
	rng := rand.New(rand.NewSource(3))
	names := make([]string, 300)
	for i := range names {
		b := make([]byte, 3+rng.Intn(8))
		b[0] = 'A' + byte(rng.Intn(26))
		for j := 1; j < len(b); j++ {
			b[j] = 'a' + byte(rng.Intn(26))
		}
		names[i] = string(b)
	}
	return names
}()

// BenchmarkSortShapes times Sort as the sorter calls it: run-sized inputs of
// its own key-row shapes, the scatter buffer supplied.
func BenchmarkSortShapes(b *testing.B) {
	const n = 1 << 17
	for _, sh := range sorterShapes {
		rng := rand.New(rand.NewSource(4))
		base := make([]byte, n*sh.rowW)
		for i := 0; i < n; i++ {
			row := base[i*sh.rowW : (i+1)*sh.rowW]
			sh.fill(row[:sh.keyW], rng)
			binary.LittleEndian.PutUint32(row[sh.keyW:], uint32(i))
		}
		b.Run(fmt.Sprintf("%s/key=%d/row=%d", sh.name, sh.keyW, sh.rowW), func(b *testing.B) {
			data := make([]byte, len(base))
			scratch := make([]byte, len(base))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(data, base)
				b.StartTimer()
				SortOpts(data, sh.rowW, sh.keyW, Options{Scratch: scratch})
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
		})
	}
}

// widthRuleShapes fill row i's key in the width rule's grid: a constant
// validity byte, as the sorter writes before every value, then the value
// bytes.
var widthRuleShapes = []struct {
	name string
	fill func(key []byte, i int, rng *rand.Rand)
}{
	// Every value byte random.
	{"random", func(key []byte, _ int, rng *rand.Rand) {
		key[0] = 1
		rng.Read(key[1:])
	}},
	// A big-endian integer from a domain of 1,000: the leading value bytes
	// are constant, the trailing two vary.
	{"lowcard", func(key []byte, _ int, rng *rand.Rand) {
		putTail(key, uint64(rng.Intn(1000)))
	}},
	// 0..n-1 shuffled, a dense integer key (sortbench fig12's input).
	{"dense", func(key []byte, i int, _ *rand.Rand) {
		putTail(key, uint64(densePerm[i]))
	}},
	// One of 16 keys random in every value byte, each repeated n/16 times.
	{"dup16", func(key []byte, _ int, rng *rand.Rand) {
		key[0] = 1
		copy(key[1:], dupKeys[rng.Intn(len(dupKeys))][:])
	}},
}

// putTail writes a validity byte and v big-endian into the rest of key.
func putTail(key []byte, v uint64) {
	var be [8]byte
	binary.BigEndian.PutUint64(be[:], v)
	key[0] = 1
	copy(key[1:], be[8-(len(key)-1):])
}

const widthRuleRows = 1 << 17

var densePerm = rand.New(rand.NewSource(7)).Perm(widthRuleRows)

var dupKeys = func() (keys [16][8]byte) {
	rng := rand.New(rand.NewSource(6))
	for i := range keys {
		rng.Read(keys[i][:])
	}
	return keys
}()

// BenchmarkSortWidthRule times LSD against MSD, both forced, at the key
// widths around the rule's cut-off (LSDThreshold) and the sorter's row
// stride for each (key, 8-byte payload reference, padded to 8), over the key
// shapes that decide which side is faster. It is the measurement a change of
// the threshold starts from.
func BenchmarkSortWidthRule(b *testing.B) {
	const n = widthRuleRows
	for keyW := 4; keyW <= 9; keyW++ {
		rowW := (keyW + 8 + 7) &^ 7
		for _, sh := range widthRuleShapes {
			rng := rand.New(rand.NewSource(5))
			base := make([]byte, n*rowW)
			for i := 0; i < n; i++ {
				row := base[i*rowW : (i+1)*rowW]
				sh.fill(row[:keyW], i, rng)
				binary.LittleEndian.PutUint64(row[keyW:], uint64(i))
			}
			data, scratch := make([]byte, len(base)), make([]byte, len(base))
			for _, algo := range []string{"lsd", "msd"} {
				opt := Options{Scratch: scratch, ForceLSD: algo == "lsd", ForceMSD: algo == "msd"}
				b.Run(fmt.Sprintf("key=%d/%s/%s", keyW, sh.name, algo), func(b *testing.B) {
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						copy(data, base)
						b.StartTimer()
						SortOpts(data, rowW, keyW, opt)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
				})
			}
		}
	}
}
