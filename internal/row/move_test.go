package row

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// TestMoversMatchCopy checks the row movers against copy: MoveRow at every
// width from 1 to 72, and each fixed mover at its own width over slices that
// run on past it, with source and destination at odd offsets. Every byte of
// the destination buffer is compared, so a mover that writes beside the row
// fails as surely as one that moves the wrong bytes.
func TestMoversMatchCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	fixed := map[int]func(dst, src []byte){16: Move16, 24: Move24, 32: Move32, 40: Move40}
	const maxW = 72
	for w := 1; w <= maxW; w++ {
		movers := map[string]func(dst, src []byte){
			"MoveRow": func(dst, src []byte) { MoveRow(dst, src[:w]) },
		}
		if m, ok := fixed[w]; ok {
			movers[fmt.Sprintf("Move%d", w)] = m
		}
		for name, move := range movers {
			for _, so := range []int{1, 3, 7} {
				for _, do := range []int{1, 5, 9} {
					src := make([]byte, maxW+16)
					rng.Read(src)
					before := bytes.Clone(src)
					got := bytes.Repeat([]byte{0xEE}, maxW+16)
					want := bytes.Clone(got)
					move(got[do:], src[so:])
					copy(want[do:do+w], src[so:so+w])
					if !bytes.Equal(got, want) {
						t.Fatalf("%s width %d, src at %d, dst at %d:\n got %x\nwant %x", name, w, so, do, got, want)
					}
					if !bytes.Equal(src, before) {
						t.Fatalf("%s width %d, src at %d, dst at %d: the source changed", name, w, so, do)
					}
				}
			}
		}
	}
}
