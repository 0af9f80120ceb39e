package core

import (
	"leishen/internal/flashloan"
	"leishen/internal/simplify"
	"leishen/internal/types"
)

// slabBlockLen is the number of values a slab block holds. Larger
// blocks amortize better but pin more memory per in-flight report
// batch; 256 puts the steady-state slab cost around 1/256th of an
// allocation per saved slice.
const slabBlockLen = 256

// slab is an append-only allocator for report-owned data. save copies a
// scratch slice into the current block and returns the region; when a
// block fills up it is abandoned to the reports that reference it — the
// GC reclaims it once those reports are released — and a fresh block is
// started. Two invariants make the escaping regions safe:
//
//   - a block is NEVER grown by reallocation: save starts a new block
//     instead, so previously returned regions never move;
//   - regions are returned with capacity clamped to their length
//     (three-index slices), so appending to a region can never bleed
//     into a neighbour.
type slab[T any] struct {
	block []T
}

// save copies src into the slab and returns the stable region; nil for
// an empty src (matching the "empty report field is nil" convention).
func (s *slab[T]) save(src []T) []T {
	if len(src) == 0 {
		return nil
	}
	if cap(s.block)-len(s.block) < len(src) {
		n := slabBlockLen
		if n < len(src) {
			n = len(src)
		}
		s.block = make([]T, 0, n)
	}
	lo := len(s.block)
	s.block = append(s.block, src...)
	return s.block[lo:len(s.block):len(s.block)]
}

// rewind empties the current block for reuse, invalidating every
// region carved from it.
func (s *slab[T]) rewind() { s.block = s.block[:0] }

// saveOne stores one value and returns a stable pointer to it.
func (s *slab[T]) saveOne(v T) *T {
	if cap(s.block)-len(s.block) < 1 {
		s.block = make([]T, 0, slabBlockLen)
	}
	s.block = append(s.block, v)
	return &s.block[len(s.block)-1]
}

// Arena owns every intermediate buffer of the detection pipeline —
// extract → tag → simplify → trades → match — plus the slabs that back
// the escaping report data: the report itself, its loans, borrower
// tags, trades (with their secondary legs) and matches. A scanning
// loop keeps one Arena per worker: Inspect resets each intermediate
// (never reallocated) at its point of use, and report-owned slices are
// carved from slab blocks, so the steady-state hot path allocates only
// when a slab block fills (~1/256th of an allocation per report field)
// or an intermediate grows past its high-water mark.
//
// The zero value is ready to use. An Arena is not safe for concurrent
// use; give each worker its own. Reports returned by Inspect own their
// data (slab regions are never rewritten), so they remain valid after
// any number of further calls with the same arena.
type Arena struct {
	// Interned pipeline intermediates.
	fl      flashloan.Scratch
	it      []types.ITransfer
	isimp   simplify.IScratch
	itrades []types.ITrade

	// Pattern-matching scratch.
	targets     []types.TokenID
	run         []int
	mbs         []mbsState
	involvedBuf []types.ITrade
	imatches    []iMatch
	btags       []types.TagID

	// Materialization staging: resolved values are assembled here and
	// then copied into the slabs in one save.
	tmpTrades  []types.Trade
	tmpTags    []types.Tag
	tmpMatches []Match

	// Slabs backing report-owned data.
	reportSlab slab[Report]
	loanSlab   slab[flashloan.Loan]
	tradeSlab  slab[types.Trade]
	legSlab    slab[types.TradeLeg]
	tagSlab    slab[types.Tag]
	matchSlab  slab[Match]
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// Rewind resets the slabs for reuse, so the next reports are carved
// from the memory the previous ones occupied. It breaks the ownership
// promise of Inspect: every report returned from this arena before the
// Rewind — its loans, trades, tags and matches — is overwritten by
// later calls. Only a caller that is done with every report the arena
// ever returned (encode, then drop) may rewind it.
func (a *Arena) Rewind() {
	a.reportSlab.rewind()
	a.loanSlab.rewind()
	a.tradeSlab.rewind()
	a.legSlab.rewind()
	a.tagSlab.rewind()
	a.matchSlab.rewind()
}
