//go:build race

package row

// Under the race detector the pools overwrite every key buffer, and every
// set's rows and string heap, with PoisonByte when it is put back, so that a
// run, a sink, a claimant or a merge pass that reads a buffer after its
// release fails its oracle instead of reading the rows it expects.
const PoisonReleased = true
