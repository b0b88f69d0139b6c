package algebra

// Sort-based physical operators: streaming sort-merge equi-joins
// (inner/semi/anti/leftouter) and sort-group aggregation over columnar
// tables — the second physical layer beside the hash operators.
//
// Every operator here emits the *hash-canonical output sequence*: the
// exact row order its hash counterpart produces (probe rows in input
// order with matches in build-input order; groups in first-encounter
// order, folded in input order). Sortedness is exploited internally —
// to find join partners by merging instead of hashing, and to detect
// group boundaries by run instead of hash lookups — but never leaks
// into the output order. Two consequences:
//
//   - results are bit-identical to the hash layer for every operator,
//     every worker count and every input, float aggregation included,
//     so the whole differential-testing story of the runtime carries
//     over unchanged; and
//   - an operator's output keeps its left/probe input's physical order,
//     which is exactly the contractual order propagation the optimizer
//     assumes (internal/ordering): orders originate at sorted scans and
//     survive through the sort-based layer.
//
// The operators reuse the batch machinery of the hash layer: merge joins
// emit (left, right) physical index pairs into the typed column gather
// (gatherConcat), semi- and antijoins return selection vectors over the
// shared input columns (selTable), and sort-group folds through the
// shared accumulator core (aggCell.updateVals). Internally they work on
// logical row indices; because selection vectors are monotone, logical
// order is physical order, so inputs under a selection behave exactly
// like their compacted form.
//
// When an input's sort is *eliminated* (the optimizer proved its
// contractual order covers the requirement), the operator does not
// trust the claim blindly: the merge verifies non-decreasing keys while
// streaming and fails the execution on a violated declaration — a wrong
// scan-order declaration is an error, never a wrong result.
//
// When an input's sort is *performed*, rows are ordered by
// (key, original index). That total order makes the sorted permutation
// unique, so the parallel sort (chunked sort + pairwise merge rounds)
// is bit-identical to the sequential one for every worker count.

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"eagg/internal/aggfn"
)

// ---------------------------------------------------------------------
// Comparators
// ---------------------------------------------------------------------

// compareJoinValue is the total order behind merge joins. Its equality
// coincides with join-key equality (strict, numeric across int/float —
// Int(2) = Float(2.0), like encodeJoin's normalization); NULL and NaN
// never reach it (rows with such keys are filtered like in the hash
// operators). Mixed number/string keys order numbers first — consistent
// on both sides, which is all a merge needs.
func compareJoinValue(a, b Value) int {
	as, bs := a.Kind == KindString, b.Kind == KindString
	if as || bs {
		if as && bs {
			return strings.Compare(a.S, b.S)
		}
		if bs {
			return -1 // number < string
		}
		return 1
	}
	if a.Kind == KindInt && b.Kind == KindInt {
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		}
		return 0
	}
	af, bf := a.AsFloat(), b.AsFloat()
	switch {
	case af < bf:
		return -1
	case af > bf:
		return 1
	}
	return 0
}

// compareGroupValue is the total order behind sort-group aggregation.
// Its equality coincides with grouping equality (NULL = NULL, all NaNs
// one group, otherwise kind-sensitive like encodeGroup): values that
// hash aggregation keeps apart never compare equal here.
func compareGroupValue(a, b Value) int {
	ra, rb := groupRank(a), groupRank(b)
	if ra != rb {
		return ra - rb
	}
	switch ra {
	case 0, 1: // both NULL / both NaN
		return 0
	case 3:
		return strings.Compare(a.S, b.S)
	}
	if c := compareJoinValue(a, b); c != 0 {
		return c
	}
	// Numerically equal but kind-sensitive: Int(2) before Float(2.0).
	return int(a.Kind) - int(b.Kind)
}

func groupRank(v Value) int {
	switch v.Kind {
	case KindNull:
		return 0
	case KindString:
		return 3
	case KindFloat:
		if math.IsNaN(v.F) {
			return 1
		}
	}
	return 2
}

// ---------------------------------------------------------------------
// Key columns
// ---------------------------------------------------------------------

// keyCols holds the key slots of one input materialized per slot in
// logical row order: the comparators' random-access view of a columnar
// table. Slot -1 reads as a NULL column, like colValue.
type keyCols [][]Value

// keyColumns materializes t's key slots.
func keyColumns(t *ColTable, slots []int) keyCols {
	n := t.Card()
	out := make(keyCols, len(slots))
	for k, s := range slots {
		vals := make([]Value, n)
		if s >= 0 {
			col := &t.Cols[s]
			for i := range vals {
				vals[i] = col.Value(int(t.phys(i)))
			}
		}
		out[k] = vals
	}
	return out
}

// compare compares logical row i of a with logical row j of b under cmp.
func (a keyCols) compare(i int32, b keyCols, j int32, cmp func(Value, Value) int) int {
	for k := range a {
		if c := cmp(a[k][i], b[k][j]); c != 0 {
			return c
		}
	}
	return 0
}

// hasNull reports whether logical row i has a NULL or NaN key component —
// such rows match nothing under strict (join) equality: NULL by SQL
// semantics, NaN because NaN ≠ NaN, exactly as the reference operators'
// EqStrict comparison behaves.
func (a keyCols) hasNull(i int) bool {
	for _, vals := range a {
		if v := vals[i]; v.IsNull() || (v.Kind == KindFloat && math.IsNaN(v.F)) {
			return true
		}
	}
	return false
}

// sameGroup reports whether logical rows i and j share a grouping key
// under exactly the equality of the hash layer's key encoding
// (appendKeyValue): kind-sensitive, NULL = NULL, all NaNs one group,
// other floats by bit pattern.
func (a keyCols) sameGroup(i, j int) bool {
	for _, vals := range a {
		x, y := vals[i], vals[j]
		if x.Kind != y.Kind {
			return false
		}
		switch x.Kind {
		case KindInt:
			if x.I != y.I {
				return false
			}
		case KindString:
			if x.S != y.S {
				return false
			}
		case KindFloat:
			if math.Float64bits(x.F) != math.Float64bits(y.F) && !(math.IsNaN(x.F) && math.IsNaN(y.F)) {
				return false
			}
		}
	}
	return true
}

// ---------------------------------------------------------------------
// Index preparation: verified (eliminated sort) or sorted (performed)
// ---------------------------------------------------------------------

// verifiedJoinIndex returns the logical indices of the n rows with
// non-NULL keys in input order, verifying the contractual claim that the
// kept rows are non-decreasing under the join comparator. A violation is
// an execution error: the scan-order declaration (or an unsound order
// inference) lied about the data.
func verifiedJoinIndex(ks keyCols, n int) ([]int32, error) {
	idx := make([]int32, 0, n)
	prev := int32(-1)
	for i := 0; i < n; i++ {
		if ks.hasNull(i) {
			continue
		}
		if prev >= 0 && ks.compare(prev, ks, int32(i), compareJoinValue) > 0 {
			return nil, fmt.Errorf(
				"algebra: input declared sorted on merge keys but row %d is out of order (violated scan-order declaration)", i)
		}
		prev = int32(i)
		idx = append(idx, int32(i))
	}
	return idx, nil
}

// sortedIndexBy returns the logical indices of the n rows ordered by
// (key, index) under cmp — a total order, so the permutation is unique
// and identical for every worker count. With filterNull set, rows with
// NULL/NaN key components are dropped first (join semantics); otherwise
// every row participates (grouping semantics).
func (e *Exec) sortedIndexBy(ks keyCols, n int, cmp func(Value, Value) int, filterNull bool) []int32 {
	idx := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		if filterNull && ks.hasNull(i) {
			continue
		}
		idx = append(idx, int32(i))
	}
	less := func(a, b int32) bool {
		if c := ks.compare(a, ks, b, cmp); c != 0 {
			return c < 0
		}
		return a < b
	}
	if !e.parFor(len(idx)) {
		sort.Slice(idx, func(i, j int) bool { return less(idx[i], idx[j]) })
		return idx
	}
	// Parallel: sort morsel-sized chunks concurrently, then merge
	// adjacent runs in rounds — one task per merge pair, so the cascade
	// keeps all workers busy instead of collapsing onto one morsel. The
	// (key, index) order is total, so the result does not depend on the
	// chunking.
	size := e.sizeFor(len(idx))
	var chunks [][]int32
	for lo := 0; lo < len(idx); lo += size {
		chunks = append(chunks, idx[lo:min(lo+size, len(idx))])
	}
	e.forMorsels(len(idx), func(m, lo, hi int) {
		c := idx[lo:hi]
		sort.Slice(c, func(i, j int) bool { return less(c[i], c[j]) })
	})
	for len(chunks) > 1 {
		next := make([][]int32, (len(chunks)+1)/2)
		e.forTasks(len(next), func(p int) {
			if 2*p+1 < len(chunks) {
				next[p] = mergeRuns(chunks[2*p], chunks[2*p+1], less)
			} else {
				next[p] = chunks[2*p]
			}
		})
		chunks = next
	}
	if len(chunks) == 1 {
		return chunks[0]
	}
	return idx
}

// mergeRuns merges two runs sorted under less into a fresh slice.
func mergeRuns(a, b []int32, less func(x, y int32) bool) []int32 {
	out := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if less(b[j], a[i]) {
			out = append(out, b[j])
			j++
		} else {
			out = append(out, a[i])
			i++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// joinIndex prepares one merge input: verified input order when the sort
// is eliminated, (key, index)-sorted otherwise.
func (e *Exec) joinIndex(ks keyCols, n int, needSort bool) ([]int32, error) {
	if needSort {
		return e.sortedIndexBy(ks, n, compareJoinValue, true), nil
	}
	return verifiedJoinIndex(ks, n)
}

// ---------------------------------------------------------------------
// The merge: per-left-row match ranges
// ---------------------------------------------------------------------

// noRange marks "no partners" in a range table.
const noRange = int32(-1)

// matchRanges walks the two prepared index streams once and returns, per
// logical left row, the half-open range into rIdx holding its join
// partners. Rows absent from lIdx (NULL keys) keep noRange. Within one
// range, rIdx ascends — for a performed sort by the (key, index) order,
// for a verified input by construction — so partners are emitted in
// right-input order, exactly like a hash build's posting list.
func matchRanges(nl int, lk, rk keyCols, lIdx, rIdx []int32) [][2]int32 {
	ranges := make([][2]int32, nl)
	for i := range ranges {
		ranges[i] = [2]int32{noRange, noRange}
	}
	j := 0
	for i := 0; i < len(lIdx); {
		lrow := lIdx[i]
		// Left key group [i, i2).
		i2 := i + 1
		for i2 < len(lIdx) && lk.compare(lIdx[i2], lk, lrow, compareJoinValue) == 0 {
			i2++
		}
		// Advance the right stream to the group's key.
		for j < len(rIdx) && rk.compare(rIdx[j], lk, lrow, compareJoinValue) < 0 {
			j++
		}
		j2 := j
		for j2 < len(rIdx) && rk.compare(rIdx[j2], lk, lrow, compareJoinValue) == 0 {
			j2++
		}
		if j2 > j {
			for ; i < i2; i++ {
				ranges[lIdx[i]] = [2]int32{int32(j), int32(j2)}
			}
		} else {
			i = i2
		}
		// The right pointer stays at the group start: several left keys
		// never share right partners (keys differ), so j only moves
		// forward — the walk is linear.
		j = j2
	}
	return ranges
}

// verifyOrderedBy checks the contractual claim behind an eliminated
// group sort: the table is non-decreasing on the covering order prefix
// (grouping comparator: NULLs first, kind-refined). Adjacent pairs are
// checked morsel-parallel; a violation is an execution error — the
// scan-order declaration (or an unsound inference) lied about the data.
func (e *Exec) verifyOrderedBy(t *ColTable, slots []int) error {
	n := t.Card()
	if len(slots) == 0 || n < 2 {
		return nil
	}
	ks := keyColumns(t, slots)
	viol := make([]int, e.morselCount(n))
	for i := range viol {
		viol[i] = -1
	}
	e.forMorsels(n, func(m, lo, hi int) {
		if lo == 0 {
			lo = 1
		}
		for i := lo; i < hi; i++ {
			if ks.compare(int32(i-1), ks, int32(i), compareGroupValue) > 0 {
				viol[m] = i
				return
			}
		}
	})
	// Morsels cover ascending index ranges and each records its first
	// violation, so the first hit in morsel order is the global first.
	for _, v := range viol {
		if v >= 0 {
			return fmt.Errorf(
				"algebra: input declared ordered for streaming aggregation but row %d is out of order (violated scan-order declaration)", v)
		}
	}
	return nil
}

// mergePrepare runs both index preparations and the merge walk — the
// shared first half of every merge join.
func (e *Exec) mergePrepare(l, r *ColTable, lk, rk []int, sortL, sortR bool) ([]int32, [][2]int32, error) {
	lks, rks := keyColumns(l, lk), keyColumns(r, rk)
	lIdx, err := e.joinIndex(lks, l.Card(), sortL)
	if err != nil {
		return nil, nil, fmt.Errorf("merge join, left input: %w", err)
	}
	rIdx, err := e.joinIndex(rks, r.Card(), sortR)
	if err != nil {
		return nil, nil, fmt.Errorf("merge join, right input: %w", err)
	}
	return rIdx, matchRanges(l.Card(), lks, rks, lIdx, rIdx), nil
}

// mergePairs expands the match ranges into the (left, right) physical
// index pairs of the join output, in left-input order with partners in
// right-input order. With outer set, a left row without partners emits
// one (left, -1) pair — the padded row.
func mergePairs(l, r *ColTable, rIdx []int32, ranges [][2]int32, outer bool) (lidx, ridx []int32) {
	total := 0
	for _, rg := range ranges {
		if rg[0] == noRange {
			if outer {
				total++
			}
			continue
		}
		total += int(rg[1] - rg[0])
	}
	lidx = make([]int32, 0, total)
	ridx = make([]int32, 0, total)
	for i, rg := range ranges {
		if rg[0] == noRange {
			if outer {
				lidx = append(lidx, l.phys(i))
				ridx = append(ridx, -1)
			}
			continue
		}
		for j := rg[0]; j < rg[1]; j++ {
			lidx = append(lidx, l.phys(i))
			ridx = append(ridx, r.phys(int(rIdx[j])))
		}
	}
	return lidx, ridx
}

// mergeSelect returns the selection of left rows whose partner status
// equals matched — the semijoin (true) or antijoin (false) output.
func mergeSelect(l *ColTable, ranges [][2]int32, matched bool) *ColTable {
	var sel []int32
	for i, rg := range ranges {
		if (rg[0] != noRange) == matched {
			sel = append(sel, l.phys(i))
		}
	}
	return selTable(l, sel)
}

// ---------------------------------------------------------------------
// The operators
// ---------------------------------------------------------------------

// MergeJoin is the inner equi-join l ⋈ r on the sort-based layer. sortL
// and sortR say which inputs must be sorted; a false flag is the
// eliminated-sort case and requires (and verifies) that the input is
// already non-decreasing on its key slots. The output sequence equals
// BatchHashJoin's exactly.
func (e *Exec) MergeJoin(l, r *ColTable, lk, rk []int, sortL, sortR bool) (*ColTable, error) {
	e = e.seqFor(max(l.Card(), r.Card()))
	rIdx, ranges, err := e.mergePrepare(l, r, lk, rk, sortL, sortR)
	if err != nil {
		return nil, err
	}
	lidx, ridx := mergePairs(l, r, rIdx, ranges, false)
	return e.gatherConcat(l, r, lidx, ridx, nil, nil, e.par()), nil
}

// MergeSemiJoin is the left semijoin l ⋉ r on the sort-based layer: a
// selection over l's columns, like BatchHashSemiJoin.
func (e *Exec) MergeSemiJoin(l, r *ColTable, lk, rk []int, sortL, sortR bool) (*ColTable, error) {
	e = e.seqFor(max(l.Card(), r.Card()))
	_, ranges, err := e.mergePrepare(l, r, lk, rk, sortL, sortR)
	if err != nil {
		return nil, err
	}
	return mergeSelect(l, ranges, true), nil
}

// MergeAntiJoin is the left antijoin l ▷ r on the sort-based layer. Left
// rows with NULL key components are kept, like in the hash operator.
func (e *Exec) MergeAntiJoin(l, r *ColTable, lk, rk []int, sortL, sortR bool) (*ColTable, error) {
	e = e.seqFor(max(l.Card(), r.Card()))
	_, ranges, err := e.mergePrepare(l, r, lk, rk, sortL, sortR)
	if err != nil {
		return nil, err
	}
	return mergeSelect(l, ranges, false), nil
}

// MergeLeftOuter is the left outerjoin on the sort-based layer. pad must
// be a full row over r's schema (the engine's default vectors).
func (e *Exec) MergeLeftOuter(l, r *ColTable, lk, rk []int, sortL, sortR bool, pad Row) (*ColTable, error) {
	e = e.seqFor(max(l.Card(), r.Card()))
	rIdx, ranges, err := e.mergePrepare(l, r, lk, rk, sortL, sortR)
	if err != nil {
		return nil, err
	}
	lidx, ridx := mergePairs(l, r, rIdx, ranges, true)
	return e.gatherConcat(l, r, lidx, ridx, nil, pad, e.par()), nil
}

// SortGroup is sort-group aggregation: the sort-based counterpart of
// BatchHashGroup. With sortInput false the input's contractual order
// already makes every group a consecutive run, and the operator streams
// over the input aggregating run by run — zero reorganization. With
// sortInput true it orders rows by (grouping key, input index) first.
// Either way every group folds its rows in input order and groups are
// emitted in first-encounter order: the output is bit-identical to
// BatchHashGroup.
func (e *Exec) SortGroup(t *ColTable, groupBy []string, f aggfn.Vector, sortInput bool, verify []int) (*ColTable, error) {
	e = e.seqFor(t.Card())
	bound := BindVector(f, t.Schema)
	keys := keyColumns(t, t.Schema.Slots(groupBy))
	names := make([]string, 0, len(groupBy)+len(f))
	names = append(names, groupBy...)
	names = append(names, f.Outs()...)
	outSchema := NewSchema(names)

	if !sortInput {
		if err := e.verifyOrderedBy(t, verify); err != nil {
			return nil, err
		}
		return colTableFromRows(outSchema, e.streamRuns(t, keys, bound)), nil
	}

	idx := e.sortedIndexBy(keys, t.Card(), compareGroupValue, false)
	// Runs of equal keys are contiguous in idx and internally ascend by
	// original index, so folding a run front to back is folding the
	// group in input order. Emitting the finished groups by ascending
	// first (= minimal original) index restores first-encounter order.
	groups := e.foldSortedRuns(t, keys, idx, bound)
	sort.Slice(groups, func(i, j int) bool { return groups[i].first < groups[j].first })
	rows := make([]Row, len(groups))
	for i, g := range groups {
		rows[i] = g.row
	}
	return colTableFromRows(outSchema, rows), nil
}

// groupFold folds the logical rows of one group at a time through the
// shared accumulator core and finishes them into output rows.
type groupFold struct {
	t       *ColTable
	keys    keyCols
	bound   []BoundAgg
	cells   []aggCell
	scratch []byte
}

func newGroupFold(t *ColTable, keys keyCols, bound []BoundAgg) *groupFold {
	return &groupFold{t: t, keys: keys, bound: bound, cells: make([]aggCell, len(bound))}
}

// add folds logical row i into the current group.
func (g *groupFold) add(i int32) {
	p := g.t.phys(int(i))
	for c := range g.bound {
		a := &g.bound[c]
		g.cells[c].updateVals(a, colValue(g.t, a.Arg, p), colValue(g.t, a.Arg2, p), colValue(g.t, a.Wgt, p), &g.scratch)
	}
}

// finish emits the current group — the grouping values of its first
// logical row followed by the finished aggregates — and resets the
// accumulators for the next group.
func (g *groupFold) finish(first int32) Row {
	row := make(Row, 0, len(g.keys)+len(g.bound))
	for _, vals := range g.keys {
		row = append(row, vals[first])
	}
	for c := range g.bound {
		row = append(row, g.cells[c].final(&g.bound[c]))
		g.cells[c] = aggCell{}
	}
	return row
}

// foldSortedRuns folds each equal-key run of the sorted index into one
// finished group row, in parallel across runs. Run boundaries are a pure
// function of the data, and each run is owned start to finish by the
// task whose original span contains its first element, so the result is
// identical for every worker count.
func (e *Exec) foldSortedRuns(t *ColTable, keys keyCols, idx []int32, bound []BoundAgg) []groupOut {
	n := len(idx)
	sameKey := func(a, b int32) bool { return keys.compare(a, keys, b, compareGroupValue) == 0 }
	// fold folds every run starting in [lo, hi) to completion (a run may
	// extend past hi; runs starting before lo belong to earlier spans).
	fold := func(lo, hi int) []groupOut {
		var outs []groupOut
		g := newGroupFold(t, keys, bound)
		p := lo
		for p < hi && p > 0 && sameKey(idx[p-1], idx[p]) {
			p++
		}
		for p < hi {
			end := p
			for end < n && sameKey(idx[p], idx[end]) {
				g.add(idx[end])
				end++
			}
			outs = append(outs, groupOut{first: idx[p], row: g.finish(idx[p])})
			p = end
		}
		return outs
	}
	if !e.parFor(n) {
		return fold(0, n)
	}
	chunks := make([][]groupOut, e.morselCount(n))
	e.forMorsels(n, func(m, lo, hi int) {
		chunks[m] = fold(lo, hi)
	})
	var all []groupOut
	for _, c := range chunks {
		all = append(all, c...)
	}
	return all
}

// streamRuns is the eliminated-sort aggregation: the input's order makes
// every group one consecutive run, so a single pass folds runs in place.
// Boundaries use exactly the hash layer's grouping equality (sameGroup),
// so run equality is hash-group equality.
func (e *Exec) streamRuns(t *ColTable, keys keyCols, bound []BoundAgg) []Row {
	n := t.Card()
	fold := func(lo, hi int) []Row { // runs starting in [lo,hi), folded to completion
		var chunk []Row
		g := newGroupFold(t, keys, bound)
		p := lo
		for p < hi && p > 0 && keys.sameGroup(p-1, p) {
			p++
		}
		for p < hi {
			end := p
			for end < n && keys.sameGroup(p, end) {
				g.add(int32(end))
				end++
			}
			chunk = append(chunk, g.finish(int32(p)))
			p = end
		}
		return chunk
	}
	if !e.parFor(n) {
		return fold(0, n)
	}
	chunks := make([][]Row, e.morselCount(n))
	e.forMorsels(n, func(m, lo, hi int) {
		chunks[m] = fold(lo, hi)
	})
	total := 0
	for _, c := range chunks {
		total += len(c)
	}
	rows := make([]Row, 0, total)
	for _, c := range chunks {
		rows = append(rows, c...)
	}
	return rows
}
