//go:build !race

package spill

// poisonFreed is whether a stage overwrites a read buffer with poisonByte
// when it returns to the pool: only under the race detector (poison_race.go).
const poisonFreed = false
