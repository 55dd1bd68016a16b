//go:build !race

package row

// PoisonReleased is whether the pools overwrite what is put back with
// PoisonByte: only under the race detector (poison_race.go).
const PoisonReleased = false
