// Package analyzers registers the full rowsort analysis suite. The driver
// (cmd/rowsortlint) and any future embedding (a test, a CI harness) share
// this one list so an analyzer added here is everywhere at once.
package analyzers

import (
	"rowsort/internal/analysis"
	"rowsort/internal/analysis/analyzers/atomicfield"
	"rowsort/internal/analysis/analyzers/chanclose"
	"rowsort/internal/analysis/analyzers/ctxdone"
	"rowsort/internal/analysis/analyzers/goroutinejoin"
	"rowsort/internal/analysis/analyzers/hotpathalloc"
	"rowsort/internal/analysis/analyzers/keyorder"
	"rowsort/internal/analysis/analyzers/purecmp"
)

// Suite is every analyzer, in reporting order.
var Suite = []*analysis.Analyzer{
	atomicfield.Analyzer,
	chanclose.Analyzer,
	ctxdone.Analyzer,
	goroutinejoin.Analyzer,
	hotpathalloc.Analyzer,
	keyorder.Analyzer,
	purecmp.Analyzer,
}
