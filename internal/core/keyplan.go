package core

import (
	"fmt"

	"rowsort/internal/normkey"
	"rowsort/internal/obs"
	"rowsort/internal/vector"
)

// DefaultKeyCompSampleRows is the number of rows SortTable samples to decide
// compressed key encodings. A few thousand rows are enough to find shared
// prefixes, low cardinality and discriminating lengths; the sample never has
// to be right for correctness — values it mispredicts escape or tie, and the
// tie-break restores the exact order.
const DefaultKeyCompSampleRows = 4096

// PlanCompression inspects sample chunks and, when Options.KeyComp enables
// dictionary or truncation encoding, rebuilds the sorter's key encoder with
// a compression plan. It must run before the first Append: the normalized
// key layout (width, stride) changes with the plan, so rows encoded earlier
// would be incomparable. SortTable calls it automatically; streaming callers
// (engine operators, TopN) may call it themselves with whatever prefix of
// the input they are willing to buffer.
//
// A sample that compresses nothing leaves the sorter unchanged — the full
// encoding is the fallback, not an error.
func (s *Sorter) PlanCompression(sample []*vector.Chunk) error {
	if s.opt.KeyComp&(KeyCompDict|KeyCompTrunc) == 0 || len(sample) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.finalized || len(s.runs) > 0 || s.ctr.Value(obs.RowsIngested) != 0 {
		return fmt.Errorf("core: PlanCompression must run before ingestion starts")
	}
	sp := s.rec.Worker("main").Begin(obs.PhaseKeyPlan)
	defer sp.End()

	cols := make([][]*vector.Vector, len(s.keys))
	for _, c := range sample {
		if len(c.Vectors) != len(s.schema) {
			return fmt.Errorf("core: sample chunk has %d columns, schema has %d", len(c.Vectors), len(s.schema))
		}
		for i, kc := range s.keys {
			cols[i] = append(cols[i], c.Vectors[kc.Column])
		}
	}
	cfg := normkey.PlanConfig{
		Dict:  s.opt.KeyComp&KeyCompDict != 0,
		Trunc: s.opt.KeyComp&KeyCompTrunc != 0,
	}
	plan, err := normkey.AnalyzeSample(s.enc.Keys(), cols, cfg)
	if err != nil {
		return err
	}
	if plan == nil {
		return nil
	}
	enc, err := normkey.NewEncoderPlan(s.enc.Keys(), plan)
	if err != nil {
		return err
	}
	s.enc = enc
	s.keyWidth = enc.Width()
	s.rowWidth = (s.keyWidth + refBytes + 7) &^ 7
	return nil
}

// KeyEncodingStat is one sort key's sampled compression decision.
type KeyEncodingStat struct {
	// Column is the key's schema column index.
	Column int
	// Encoding describes the decision, e.g. "dict(n=12,w=1)",
	// "trunc(skip=7,keep=1)" or "full".
	Encoding string
	// Width and FullWidth are the emitted and uncompressed segment widths
	// in bytes, validity byte included.
	Width, FullWidth int
}

// keyEncodings reports the active compression plan per sort key (for
// SortStats.KeyEncodings); nil without a plan.
func (s *Sorter) keyEncodings() []KeyEncodingStat {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.enc.Plan()
	if p == nil {
		return nil
	}
	nkeys := s.enc.Keys()
	out := make([]KeyEncodingStat, len(nkeys))
	for i, nk := range nkeys {
		end := s.enc.Width()
		if i+1 < len(nkeys) {
			end = s.enc.Offset(i + 1)
		}
		out[i] = KeyEncodingStat{
			Column:    nk.Column,
			Encoding:  p.Cols[i].String(),
			Width:     end - s.enc.Offset(i),
			FullWidth: fullSegWidth(nk),
		}
	}
	return out
}

// fullSegWidth is the uncompressed width of one key's segment, validity
// byte included (the core-side mirror of the encoder's layout rule).
func fullSegWidth(nk normkey.SortKey) int {
	if nk.Type == vector.Varchar {
		p := nk.PrefixLen
		if p <= 0 {
			p = normkey.DefaultStringPrefixLen
		}
		return 1 + p
	}
	return 1 + nk.Type.Width()
}

// keySampleChunks picks a spread of chunks covering about
// DefaultKeyCompSampleRows rows, so the plan sees the whole table rather
// than its (possibly clustered) start.
func keySampleChunks(chunks []*vector.Chunk) []*vector.Chunk {
	n := len(chunks)
	if n == 0 {
		return nil
	}
	per := chunks[0].Len()
	if per <= 0 {
		per = 1
	}
	want := (DefaultKeyCompSampleRows + per - 1) / per
	if want >= n {
		return chunks
	}
	out := make([]*vector.Chunk, 0, want)
	for i := 0; i < want; i++ {
		out = append(out, chunks[i*n/want])
	}
	return out
}
