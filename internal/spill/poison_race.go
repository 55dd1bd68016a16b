//go:build race

package spill

// Under the race detector a stage overwrites every read buffer with
// poisonByte when it returns to the pool, so that a claimant, a tie lookup or
// a merge pass that reads a block after its last release fails its oracle
// instead of reading the rows it expects.
const poisonFreed = true
