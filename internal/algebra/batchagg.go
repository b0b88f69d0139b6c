package algebra

import (
	"sort"

	"eagg/internal/aggfn"
)

// Batch-at-a-time hash aggregation. Every aggregate of the vector picks a
// fold kernel ONCE per operator, from (aggregate kind, input column
// kinds): typed columns get monomorphic loops over []int64 / []float64 /
// []string payloads with no per-value kind dispatch; ColMixed columns,
// absent arguments and the rare aggregate forms fall back to the shared
// Value-level accumulator core (aggCell.updateVals), which is
// bit-identical by construction.
//
// The typed kernels replicate the aggCell trajectories exactly:
//
//   - Sums use first-assignment start (the first non-NULL term is
//     assigned, not added to a zero), matching addTo — observable with
//     float -0.0: addTo(NULL, -0.0) is -0.0, while 0 + -0.0 would be
//     +0.0.
//   - A typed column fixes every term's kind, so an int column's running
//     sum stays Int and a float column's stays Float, exactly like
//     Add/Mul on uniform-kind operands; terms fold in input order, so
//     float rounding is reproduced bit for bit.
//   - Min/Max use plain </> against the current best, replicating
//     CompareStrict's NaN behavior (NaN compares r=0, keeping the
//     current best) and its -0.0 == +0.0 tie (neither < nor >, keep
//     current).

// foldKind selects the batch fold kernel of one aggregate.
type foldKind uint8

const (
	foldGeneric foldKind = iota
	foldCountStar
	foldCount
	foldSumInt
	foldSumFloat
	foldSumTimesInt   // both factors int columns
	foldSumTimesFloat // numeric factors, at least one float column
	foldSumIfInt      // SumIfNotNull with an int (or absent) arg2 column
	foldMinInt
	foldMaxInt
	foldMinFloat
	foldMaxFloat
	foldMinStr
	foldMaxStr
	foldAvgInt
	foldAvgFloat
)

// foldKindOf picks the kernel for one bound aggregate against the input
// column kinds. Any argument the aggregate reads that is absent (slot -1)
// routes to the generic kernel — correctness first, those cases are rare.
func foldKindOf(a *BoundAgg, t *ColTable) foldKind {
	kind := func(slot int) (ColKind, bool) {
		if slot < 0 {
			return 0, false
		}
		return t.Cols[slot].Kind, true
	}
	switch a.Kind {
	case aggfn.CountStar:
		return foldCountStar
	case aggfn.Count:
		if _, ok := kind(a.Arg); ok {
			return foldCount
		}
	case aggfn.Sum:
		switch k, ok := kind(a.Arg); {
		case ok && k == ColInt:
			return foldSumInt
		case ok && k == ColFloat:
			return foldSumFloat
		}
	case aggfn.SumTimes:
		k1, ok1 := kind(a.Arg)
		k2, ok2 := kind(a.Arg2)
		if ok1 && ok2 && (k1 == ColInt || k1 == ColFloat) && (k2 == ColInt || k2 == ColFloat) {
			if k1 == ColInt && k2 == ColInt {
				return foldSumTimesInt
			}
			return foldSumTimesFloat
		}
	case aggfn.SumIfNotNull:
		if _, ok := kind(a.Arg); ok {
			// Int(0) terms for NULL args keep the running sum on the Int
			// trajectory only if non-NULL terms are Int too.
			if k2, ok2 := kind(a.Arg2); !ok2 || k2 == ColInt {
				return foldSumIfInt
			}
		}
	case aggfn.Min, aggfn.Max:
		k, ok := kind(a.Arg)
		if !ok {
			return foldGeneric
		}
		mn := a.Kind == aggfn.Min
		switch k {
		case ColInt:
			if mn {
				return foldMinInt
			}
			return foldMaxInt
		case ColFloat:
			if mn {
				return foldMinFloat
			}
			return foldMaxFloat
		case ColStr:
			if mn {
				return foldMinStr
			}
			return foldMaxStr
		}
	case aggfn.Avg:
		switch k, ok := kind(a.Arg); {
		case ok && k == ColInt:
			return foldAvgInt
		case ok && k == ColFloat:
			return foldAvgFloat
		}
	}
	return foldGeneric
}

// bCell is the flat accumulator of one (group, aggregate) pair under a
// typed kernel: an int64/float64/string running value plus a count, with
// a lazily allocated full aggCell for the generic kernel.
type bCell struct {
	count int64
	seen  bool // a term fixed the running value (addTo's first assignment)
	i     int64
	f     float64
	s     string
	gen   *aggCell
}

// bFinal produces the aggregate result of a cell under its kernel. The
// zero cell is the valid empty state (NULL sums, zero counts), like the
// zero aggCell.
func (c *bCell) bFinal(fk foldKind, a *BoundAgg) Value {
	switch fk {
	case foldCountStar, foldCount:
		return Int(c.count)
	case foldSumInt, foldSumTimesInt, foldSumIfInt, foldMinInt, foldMaxInt:
		if !c.seen {
			return Null
		}
		return Int(c.i)
	case foldSumFloat, foldSumTimesFloat, foldMinFloat, foldMaxFloat:
		if !c.seen {
			return Null
		}
		return Float(c.f)
	case foldMinStr, foldMaxStr:
		if !c.seen {
			return Null
		}
		return Str(c.s)
	case foldAvgInt:
		if !c.seen {
			return Null // Div(NULL, count) is NULL
		}
		return Div(Int(c.i), Int(c.count))
	case foldAvgFloat:
		if !c.seen {
			return Null
		}
		return Div(Float(c.f), Int(c.count))
	}
	if c.gen == nil {
		var zero aggCell
		return zero.final(a)
	}
	return c.gen.final(a)
}

// batchGrouper accumulates groups of one aggregation (one partition of
// it, under the parallel variant). Groups are discovered per batch, then
// each aggregate's kernel folds the whole batch against the resolved
// group ids — one kernel dispatch per aggregate per batch.
type batchGrouper struct {
	t          *ColTable
	groupSlots []int
	bound      []BoundAgg
	folds      []foldKind
	groups     *bytesIndex // encoded-key group index (hashtable.go)
	intGroups  *intIndex   // single-ColInt key fast path (addInts)
	nullGid    int32       // the NULL key's group id on that path; -1 until seen
	firsts     []int32     // per group: physical index of its first row
	cells      []bCell     // len(firsts) * len(bound), group-major
	gids       []int32     // scratch: per batch row, its group id
	scratch    []byte      // distinct-key scratch of the generic kernel
}

func newBatchGrouper(t *ColTable, groupSlots []int, bound []BoundAgg) *batchGrouper {
	g := &batchGrouper{
		t:          t,
		groupSlots: groupSlots,
		bound:      bound,
		folds:      make([]foldKind, len(bound)),
		nullGid:    -1,
	}
	for i := range bound {
		g.folds[i] = foldKindOf(&bound[i], t)
	}
	return g
}

// add folds one batch: rows are physical indices, keys their grouping
// encodings (aligned with rows).
func (g *batchGrouper) add(rows []int32, keys [][]byte) {
	g.addKeys(rows, keys, nil)
}

// addKeys is add with optionally precomputed key hashes (aligned with
// rows) — the parallel path cached them during the partition scatter.
// Ids are assigned in first-encounter order either way.
func (g *batchGrouper) addKeys(rows []int32, keys [][]byte, hashes []uint64) {
	nb := len(g.bound)
	if g.groups == nil {
		g.groups = newBytesIndex(groupIndexSeedCap)
	}
	g.gids = g.gids[:0]
	for k, i := range rows {
		var h uint64
		if hashes != nil {
			h = hashes[k]
		} else {
			h = hashKey(keys[k])
		}
		id, added := g.groups.lookupOrAdd(h, keys[k], int32(len(g.firsts)))
		if added {
			g.firsts = append(g.firsts, i)
		}
		g.gids = append(g.gids, id)
	}
	g.growCells(nb)
	for j := range g.bound {
		g.fold(j, rows)
	}
}

// recordStats reports the group indexes' final geometry.
func (g *batchGrouper) recordStats(hs *HashStats) {
	if hs == nil {
		return
	}
	if g.groups != nil {
		g.groups.record(hs)
	}
	if g.intGroups != nil {
		g.intGroups.record(hs)
	}
}

// growCells extends the accumulator matrix to the current group count in
// one step. The slice only ever grows, so spare capacity is still the
// zeroed memory make handed out — reslicing exposes valid empty cells.
func (g *batchGrouper) growCells(nb int) {
	if need := len(g.firsts) * nb; need > len(g.cells) {
		if need <= cap(g.cells) {
			g.cells = g.cells[:need]
		} else {
			nc := make([]bCell, need, 2*need)
			copy(nc, g.cells)
			g.cells = nc
		}
	}
}

// addInts folds one batch whose single grouping column is typed int: the
// group key IS the int64 payload (NULL keeps its own group, exactly the
// keyNull tag's), so no key bytes are encoded and no key strings are
// copied into the map. Group discovery order — and therefore the output's
// first-encounter order — matches the encoded path row for row.
func (g *batchGrouper) addInts(rows []int32, col *Vector) {
	nb := len(g.bound)
	if g.intGroups == nil {
		g.intGroups = newIntIndex(groupIndexSeedCap)
	}
	g.gids = g.gids[:0]
	for _, i := range rows {
		var id int32
		if col.IsNull(int(i)) {
			if g.nullGid < 0 {
				g.nullGid = int32(len(g.firsts))
				g.firsts = append(g.firsts, i)
			}
			id = g.nullGid
		} else {
			gid, added := g.intGroups.lookupOrAdd(col.Ints[i], int32(len(g.firsts)))
			if added {
				g.firsts = append(g.firsts, i)
			}
			id = gid
		}
		g.gids = append(g.gids, id)
	}
	g.growCells(nb)
	for j := range g.bound {
		g.fold(j, rows)
	}
}

// fold runs aggregate j's kernel over the batch. The hot kernels hoist
// the column pointer and payload slice out of the loop; each loop body is
// monomorphic over one payload type.
func (g *batchGrouper) fold(j int, rows []int32) {
	a := &g.bound[j]
	nb := len(g.bound)
	cell := func(k int) *bCell { return &g.cells[int(g.gids[k])*nb+j] }
	var col *Vector
	if a.Arg >= 0 {
		col = &g.t.Cols[a.Arg]
	}
	switch g.folds[j] {
	case foldCountStar:
		for k := range rows {
			cell(k).count++
		}
	case foldCount:
		for k, i := range rows {
			if !col.IsNull(int(i)) {
				cell(k).count++
			}
		}
	case foldSumInt:
		vals := col.Ints
		for k, i := range rows {
			if col.IsNull(int(i)) {
				continue
			}
			c := cell(k)
			if !c.seen {
				c.i, c.seen = vals[i], true
			} else {
				c.i += vals[i]
			}
		}
	case foldSumFloat:
		vals := col.Floats
		for k, i := range rows {
			if col.IsNull(int(i)) {
				continue
			}
			c := cell(k)
			if !c.seen {
				c.f, c.seen = vals[i], true
			} else {
				c.f += vals[i]
			}
		}
	case foldSumTimesInt:
		col2 := &g.t.Cols[a.Arg2]
		v1, v2 := col.Ints, col2.Ints
		for k, i := range rows {
			if col.IsNull(int(i)) || col2.IsNull(int(i)) {
				continue // Mul with a NULL factor is NULL; addTo skips it
			}
			term := v1[i] * v2[i]
			c := cell(k)
			if !c.seen {
				c.i, c.seen = term, true
			} else {
				c.i += term
			}
		}
	case foldSumTimesFloat:
		col2 := &g.t.Cols[a.Arg2]
		fac := func(c *Vector, i int32) float64 {
			if c.Kind == ColInt {
				return float64(c.Ints[i])
			}
			return c.Floats[i]
		}
		for k, i := range rows {
			if col.IsNull(int(i)) || col2.IsNull(int(i)) {
				continue
			}
			// Mul with a float operand is Float(a.AsFloat()*b.AsFloat()).
			term := fac(col, i) * fac(col2, i)
			c := cell(k)
			if !c.seen {
				c.f, c.seen = term, true
			} else {
				c.f += term
			}
		}
	case foldSumIfInt:
		var col2 *Vector
		if a.Arg2 >= 0 {
			col2 = &g.t.Cols[a.Arg2]
		}
		for k, i := range rows {
			var term int64 // NULL arg folds Int(0)
			if !col.IsNull(int(i)) {
				if col2 == nil || col2.IsNull(int(i)) {
					continue // non-NULL arg, NULL arg2: addTo skips
				}
				term = col2.Ints[i]
			}
			c := cell(k)
			if !c.seen {
				c.i, c.seen = term, true
			} else {
				c.i += term
			}
		}
	case foldMinInt, foldMaxInt:
		mn := g.folds[j] == foldMinInt
		vals := col.Ints
		for k, i := range rows {
			if col.IsNull(int(i)) {
				continue
			}
			v := vals[i]
			c := cell(k)
			if !c.seen {
				c.i, c.seen = v, true
			} else if (mn && v < c.i) || (!mn && v > c.i) {
				c.i = v
			}
		}
	case foldMinFloat, foldMaxFloat:
		mn := g.folds[j] == foldMinFloat
		vals := col.Floats
		for k, i := range rows {
			if col.IsNull(int(i)) {
				continue
			}
			v := vals[i]
			c := cell(k)
			if !c.seen {
				c.f, c.seen = v, true
			} else if (mn && v < c.f) || (!mn && v > c.f) {
				// NaN terms compare false either way — current best kept,
				// like CompareStrict's r=0 for NaN.
				c.f = v
			}
		}
	case foldMinStr, foldMaxStr:
		mn := g.folds[j] == foldMinStr
		vals := col.Strs
		for k, i := range rows {
			if col.IsNull(int(i)) {
				continue
			}
			v := vals[i]
			c := cell(k)
			if !c.seen {
				c.s, c.seen = v, true
			} else if (mn && v < c.s) || (!mn && v > c.s) {
				c.s = v
			}
		}
	case foldAvgInt:
		vals := col.Ints
		for k, i := range rows {
			if col.IsNull(int(i)) {
				continue
			}
			c := cell(k)
			c.count++
			if !c.seen {
				c.i, c.seen = vals[i], true
			} else {
				c.i += vals[i]
			}
		}
	case foldAvgFloat:
		vals := col.Floats
		for k, i := range rows {
			if col.IsNull(int(i)) {
				continue
			}
			c := cell(k)
			c.count++
			if !c.seen {
				c.f, c.seen = vals[i], true
			} else {
				c.f += vals[i]
			}
		}
	default: // foldGeneric: the shared Value-level accumulator core
		for k, i := range rows {
			c := cell(k)
			if c.gen == nil {
				c.gen = &aggCell{}
			}
			c.gen.updateVals(a, colValue(g.t, a.Arg, i), colValue(g.t, a.Arg2, i), colValue(g.t, a.Wgt, i), &g.scratch)
		}
	}
}

// emit produces the finished group rows tagged with their first-row
// index, in this grouper's first-encounter order. Representative grouping
// values are read back from each group's first row (the input is
// immutable, so they equal the values seen at discovery).
func (g *batchGrouper) emit() []groupOut {
	nb := len(g.bound)
	outs := make([]groupOut, len(g.firsts))
	for gi, first := range g.firsts {
		row := make(Row, 0, len(g.groupSlots)+nb)
		for _, s := range g.groupSlots {
			row = append(row, colValue(g.t, s, first))
		}
		for j := 0; j < nb; j++ {
			row = append(row, g.cells[gi*nb+j].bFinal(g.folds[j], &g.bound[j]))
		}
		outs[gi] = groupOut{first: first, row: row}
	}
	return outs
}

// emitTable assembles the finished groups directly as a columnar table in
// first-encounter order: group columns are one typed gather of the
// first-row indices each, aggregate columns are built by typed kernels
// from the flat cells — no per-group row materialization at all.
func (g *batchGrouper) emitTable(s *Schema) *ColTable {
	ng := len(g.firsts)
	out := &ColTable{Schema: s, N: ng}
	out.Cols = make([]Vector, 0, len(g.groupSlots)+len(g.bound))
	for _, slot := range g.groupSlots {
		if slot < 0 {
			// Absent grouping attribute: an all-NULL column, like the
			// untyped colBuilder produces.
			var b colBuilder
			for i := 0; i < ng; i++ {
				b.append(Null)
			}
			out.Cols = append(out.Cols, b.finish())
			continue
		}
		out.Cols = append(out.Cols, gatherCol(&g.t.Cols[slot], g.firsts))
	}
	for j := range g.bound {
		out.Cols = append(out.Cols, g.aggCol(j))
	}
	return out
}

// aggCol materializes aggregate j's output column. Counts and the
// int/float/string running values of the typed kernels assemble straight
// from the cells; averages and the generic kernel route through bFinal
// (and the colBuilder) for the exact aggCell finalization.
func (g *batchGrouper) aggCol(j int) Vector {
	ng, nb := len(g.firsts), len(g.bound)
	var nulls []uint64
	hasNull := false
	markNull := func(i int) {
		if nulls == nil {
			nulls = make([]uint64, (ng+63)/64)
		}
		nulls[i>>6] |= 1 << (uint(i) & 63)
		hasNull = true
	}
	withNulls := func(v Vector) Vector {
		if hasNull {
			v.Nulls = nulls
		}
		return v
	}
	switch g.folds[j] {
	case foldCountStar, foldCount:
		ints := make([]int64, ng)
		for gi := range ints {
			ints[gi] = g.cells[gi*nb+j].count
		}
		return Vector{Kind: ColInt, Ints: ints}
	case foldSumInt, foldSumTimesInt, foldSumIfInt, foldMinInt, foldMaxInt:
		ints := make([]int64, ng)
		for gi := range ints {
			if c := &g.cells[gi*nb+j]; c.seen {
				ints[gi] = c.i
			} else {
				markNull(gi)
			}
		}
		return withNulls(Vector{Kind: ColInt, Ints: ints})
	case foldSumFloat, foldSumTimesFloat, foldMinFloat, foldMaxFloat:
		floats := make([]float64, ng)
		for gi := range floats {
			if c := &g.cells[gi*nb+j]; c.seen {
				floats[gi] = c.f
			} else {
				markNull(gi)
			}
		}
		return withNulls(Vector{Kind: ColFloat, Floats: floats})
	case foldMinStr, foldMaxStr:
		strs := make([]string, ng)
		for gi := range strs {
			if c := &g.cells[gi*nb+j]; c.seen {
				strs[gi] = c.s
			} else {
				markNull(gi)
			}
		}
		return withNulls(Vector{Kind: ColStr, Strs: strs})
	}
	var b colBuilder
	for gi := 0; gi < ng; gi++ {
		b.append(g.cells[gi*nb+j].bFinal(g.folds[j], &g.bound[j]))
	}
	return b.finish()
}

// BatchHashGroup is typed hash aggregation on the batch runtime: one
// output row per distinct grouping key (grouping equality: NULLs form
// their own group) in first-encounter order, folded in input order — the
// reference Group's result as a sequence. Attributes absent from the
// schema read as a NULL column; the output schema is the grouping
// attributes followed by the vector's outputs. Sequential: groups
// discovered and folded batch by batch. Parallel: a morsel scatter by
// encoded key, one grouper per partition folding its entries in global
// input order, partitions merged by ascending first-row index. Because
// selection vectors are monotone, ascending physical first-row order is
// first-encounter order even under a selection.
func (e *Exec) BatchHashGroup(t *ColTable, groupBy []string, f aggfn.Vector) *ColTable {
	bound := BindVector(f, t.Schema)
	groupSlots := t.Schema.Slots(groupBy)
	names := make([]string, 0, len(groupBy)+len(f))
	names = append(names, groupBy...)
	names = append(names, f.Outs()...)
	outSchema := NewSchema(names)
	bs := e.batchSize()
	n := t.Card()

	if !e.parFor(n) {
		g := newBatchGrouper(t, groupSlots, bound)
		if len(groupSlots) == 1 && groupSlots[0] >= 0 && t.Cols[groupSlots[0]].Kind == ColInt {
			col := &t.Cols[groupSlots[0]]
			sc := batchScratchPool.Get().(*batchScratch)
			for b := 0; b < n; b += bs {
				sc.rows = t.physBatch(b, min(b+bs, n), sc.rows)
				g.addInts(sc.rows, col)
			}
			batchScratchPool.Put(sc)
		} else {
			batchKeys(t, 0, n, bs, groupSlots, false, func(rows []int32, kb *keyBatch) {
				g.add(rows, kb.keys)
			})
		}
		g.recordStats(e.hashStats())
		return g.emitTable(outSchema)
	}

	scatters := make([]*morselScatter, e.morselCount(n))
	e.forMorsels(n, func(m, lo, hi int) {
		s := &morselScatter{}
		batchKeys(t, lo, hi, bs, groupSlots, false, func(rows []int32, kb *keyBatch) {
			for k, i := range rows {
				s.add(i, kb.keys[k])
			}
		})
		scatters[m] = s
	})

	partOuts := make([][]groupOut, partitions)
	e.forParts(func(p int) {
		g := newBatchGrouper(t, groupSlots, bound)
		rows := make([]int32, 0, bs)
		keys := make([][]byte, 0, bs)
		hashes := make([]uint64, 0, bs)
		flush := func() {
			if len(rows) > 0 {
				g.addKeys(rows, keys, hashes)
				rows, keys, hashes = rows[:0], keys[:0], hashes[:0]
			}
		}
		// Walking scatter entries in morsel order feeds every group in
		// global input order; flushing in slices of bs only chunks that
		// order, it never reorders.
		for _, sc := range scatters {
			for _, en := range sc.buckets[p] {
				rows = append(rows, en.row)
				keys = append(keys, sc.arena[en.off:en.off+en.len])
				hashes = append(hashes, en.hash)
				if len(rows) == bs {
					flush()
				}
			}
		}
		flush()
		g.recordStats(e.hashStats())
		partOuts[p] = g.emit()
	})

	var all []groupOut
	for _, outs := range partOuts {
		all = append(all, outs...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].first < all[j].first })
	rows := make([]Row, len(all))
	for i, o := range all {
		rows[i] = o.row
	}
	return colTableFromRows(outSchema, rows)
}

// BatchExtendProduct appends the product column of the slot values (the
// engine's weight-product extension): Int(1) times every slot value, NULL
// if any factor is NULL — exactly Mul's trajectory. All-int inputs (the
// engine's weights always are) run a typed kernel; anything else folds
// Values through Mul itself.
func (e *Exec) BatchExtendProduct(t *ColTable, name string, slots []int) *ColTable {
	tc := t.Compact() // the new column is dense; align the others
	out := &ColTable{Schema: tc.Schema.Extend(name), N: tc.N}
	out.Cols = make([]Vector, len(tc.Cols)+1)
	copy(out.Cols, tc.Cols)

	allInt := true
	for _, s := range slots {
		if tc.Cols[s].Kind != ColInt {
			allInt = false
			break
		}
	}
	n := tc.N
	if allInt {
		anyNulls := false
		for _, s := range slots {
			if tc.Cols[s].Nulls != nil {
				anyNulls = true
				break
			}
		}
		v := Vector{Kind: ColInt, Ints: make([]int64, n)}
		if !anyNulls {
			fill := func(lo, hi int) {
				for i := lo; i < hi; i++ {
					prod := int64(1)
					for _, s := range slots {
						prod *= tc.Cols[s].Ints[i]
					}
					v.Ints[i] = prod
				}
			}
			if e.parFor(n) {
				e.forMorsels(n, func(m, lo, hi int) { fill(lo, hi) })
			} else {
				fill(0, n)
			}
			out.Cols[len(tc.Cols)] = v
			return out
		}
		// NULL factors are absorbing (Mul(_, NULL) is NULL). Sequential:
		// morsel spans share bitmap words, so a parallel fill would race.
		nulls := make([]uint64, (n+63)/64)
		hasNull := false
		for i := 0; i < n; i++ {
			prod := int64(1)
			null := false
			for _, s := range slots {
				if tc.Cols[s].IsNull(i) {
					null = true
					break
				}
				prod *= tc.Cols[s].Ints[i]
			}
			if null {
				nulls[i>>6] |= 1 << (uint(i) & 63)
				hasNull = true
			} else {
				v.Ints[i] = prod
			}
		}
		if hasNull {
			v.Nulls = nulls
		}
		out.Cols[len(tc.Cols)] = v
		return out
	}

	var b colBuilder
	for i := 0; i < n; i++ {
		v := Int(1)
		for _, s := range slots {
			v = Mul(v, tc.Cols[s].Value(i))
		}
		b.append(v)
	}
	out.Cols[len(tc.Cols)] = b.finish()
	return out
}
