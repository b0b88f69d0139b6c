package algebra

import (
	"math"
	"sync"
	"sync/atomic"

	"eagg/internal/aggfn"
)

// Batch-at-a-time hash joins over columnar tables. Each operator takes
// paired key slot lists (lk[i] on the left schema matches rk[i] on the
// right schema), hashes the input with fewer logical rows (ties: the
// right one) and probes it with the other. Join equality is strict: rows
// with a NULL or NaN key component match nothing, exactly like the
// nested-loop reference operators with EqStrict predicates; with empty
// key lists the operators degenerate to their cross-product forms.
// Output row order equals the nested-loop order (left rows in input
// order, each left row's matches in right-input order, the unmatched
// right rows of a full outerjoin last), so results are identical as
// sequences, not just as bags, whichever side was built.
//
// Keys are encoded column-major a batch at a time (batchkey.go), probes
// accumulate (left, right) index pairs instead of copying rows, and the
// output columns are assembled by one typed gather per column.
// Semijoin and antijoin never copy anything: their output is a selection
// vector over the shared input columns.
//
// Posting lists hold logical row numbers of the build input; probe rows
// are physical row numbers of the probe input. Because selection vectors
// are monotone (vector.go), physical order equals logical order, so
// posting lists accumulated in logical scan order and the morsel-ordered
// chunk concatenation both keep input order. A right-side build already
// emits pairs in nested-loop order. A left-side build emits them in
// right-input order; restoreLeftOrder puts them back with one stable
// counting pass keyed by the logical left row, sized by the left input's
// cardinality.

// batchScratch bundles the per-batch scratch buffers (physical row list,
// key encodings, resolved posting lists) one batch driver needs. Pooled:
// an operator borrows one set for its whole scan instead of growing fresh
// buffers, so steady-state batch iteration allocates nothing.
type batchScratch struct {
	kb    keyBatch
	rows  []int32
	posts [][]int32
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// batchKeys iterates logical rows [lo, hi) of t in batches of bs,
// encoding the join (join=true) or grouping key of every batch over the
// slot columns and handing (physical rows, encoded keys) to fn. Key and
// row buffers come from the scratch pool and are reused across batches;
// fn must not retain them.
func batchKeys(t *ColTable, lo, hi, bs int, slots []int, join bool, fn func(rows []int32, kb *keyBatch)) {
	sc := batchScratchPool.Get().(*batchScratch)
	for b := lo; b < hi; b += bs {
		end := min(b+bs, hi)
		sc.rows = t.physBatch(b, end, sc.rows)
		if join {
			sc.kb.encodeJoin(t, sc.rows, slots)
		} else {
			sc.kb.encodeGroup(t, sc.rows, slots)
		}
		fn(sc.rows, &sc.kb)
	}
	batchScratchPool.Put(sc)
}

// batchBuild is a hashed build side over the flat tables of
// hashtable.go. Joins on a single int column — the overwhelmingly common
// equi-join shape — skip byte encoding entirely and hash the int64
// payloads themselves; everything else uses the canonical key encoding.
// Posting lists are identical either way: same keys, same build-input
// order (integral floats probe the int64 table through the same
// normalization the encoding applies). bloom, when non-nil, pre-filters
// probe keys by their cached hashes: negatives are exact (an absent key
// resolves to nil postings either way) and false positives just fall
// through to the table probe, so the filter never changes results.
type batchBuild struct {
	it    *intTable   // single-ColInt fast path (sequential)
	bt    *bytesTable // encoded keys, sequential
	pt    *partTable  // encoded keys, parallel
	bloom *bloomFilter
}

// lookHashed resolves an encoded key under its precomputed hash on the
// general paths.
func (b *batchBuild) lookHashed(h uint64, key []byte) []int32 {
	if b.bt != nil {
		return b.bt.lookupHashed(h, key)
	}
	return b.pt.lookupHashed(h, key)
}

// distinct counts the distinct keys the build holds.
func (b *batchBuild) distinct() int {
	switch {
	case b.it != nil:
		return b.it.n
	case b.bt != nil:
		return b.bt.n
	}
	n := 0
	for _, t := range b.pt.parts {
		if t != nil {
			n += t.n
		}
	}
	return n
}

// fillBloom attaches f after adding every distinct build key's hash. The
// flat tables cache those hashes, so the filter fills in one sequential
// pass — no racing bit-sets inside the partition fan-out.
func (b *batchBuild) fillBloom(f *bloomFilter) {
	switch {
	case b.it != nil:
		b.it.fillBloom(f)
	case b.bt != nil:
		b.bt.fillBloom(f)
	default:
		for _, t := range b.pt.parts {
			if t != nil {
				t.fillBloom(f)
			}
		}
	}
	b.bloom = f
}

// buildHash hashes the build input's join keys into posting lists of
// logical row indices in build-input order: one flat table (sequential)
// or a partitioned one (parallel) holding the same keys and the same
// postings. probeCard is the probing input's cardinality, used only to
// gate the optional Bloom filter; pass -1 to disable it (operators that
// emit every probe row regardless).
func (e *Exec) buildHash(t *ColTable, keys []int, par bool, probeCard int) *batchBuild {
	bs := e.batchSize()
	hs := e.hashStats()
	n := t.Card()
	b := &batchBuild{}
	switch {
	case !par && len(keys) == 1 && keys[0] >= 0 && t.Cols[keys[0]].Kind == ColInt:
		col := &t.Cols[keys[0]]
		b.it = newIntTable(n)
		for li := 0; li < n; li++ {
			i := t.phys(li)
			if col.IsNull(int(i)) {
				continue // NULL keys match nothing
			}
			b.it.insert(col.Ints[i], int32(li))
		}
		b.it.finalize()
		b.it.record(hs)
	case !par:
		b.bt = newBytesTable(n)
		li := int32(0)
		batchKeys(t, 0, n, bs, keys, true, func(rows []int32, kb *keyBatch) {
			for k := range rows {
				if !kb.dead[k] {
					b.bt.insert(hashKey(kb.keys[k]), kb.keys[k], li+int32(k))
				}
			}
			li += int32(len(rows))
		})
		b.bt.finalize()
		b.bt.record(hs)
	default:
		scatters := make([]*morselScatter, e.morselCount(n))
		e.forMorsels(n, func(m, lo, hi int) {
			s := &morselScatter{}
			li := int32(lo)
			batchKeys(t, lo, hi, bs, keys, true, func(rows []int32, kb *keyBatch) {
				for k := range rows {
					if !kb.dead[k] {
						s.add(li+int32(k), kb.keys[k])
					}
				}
				li += int32(len(rows))
			})
			scatters[m] = s
		})
		b.pt = e.buildParts(scatters)
	}
	if f := buildBloom(b.distinct(), probeCard); f != nil {
		b.fillBloom(f)
	}
	return b
}

// probePostings iterates probe rows [lo, hi) of p in batches, resolving
// every row's build-side posting list — nil both for dead rows (NULL/NaN
// key components match nothing) and for keys without a partner, which
// every probe operator treats identically. On the int fast path the
// resolution is one column-kind dispatch per batch over the raw payloads;
// otherwise keys are encoded and looked up. posts is scratch; fn must not
// retain it.
func (e *Exec) probePostings(p *ColTable, pk []int, b *batchBuild, lo, hi int, fn func(rows []int32, posts [][]int32)) {
	bs := e.batchSize()
	bloomChecks, bloomPasses := 0, 0
	defer func() { e.hashStats().recordBloom(bloomChecks, bloomPasses) }()
	if b.it == nil {
		sc := batchScratchPool.Get().(*batchScratch)
		posts := sc.posts
		batchKeys(p, lo, hi, bs, pk, true, func(rows []int32, kb *keyBatch) {
			if cap(posts) < len(rows) {
				posts = make([][]int32, len(rows))
			}
			posts = posts[:len(rows)]
			for k := range rows {
				if kb.dead[k] {
					posts[k] = nil
					continue
				}
				h := hashKey(kb.keys[k])
				if b.bloom != nil {
					bloomChecks++
					if !b.bloom.mayContain(h) {
						posts[k] = nil
						continue
					}
					bloomPasses++
				}
				posts[k] = b.lookHashed(h, kb.keys[k])
			}
			fn(rows, posts)
		})
		sc.posts = posts
		batchScratchPool.Put(sc)
		return
	}
	// Single-int build: the probe key is the raw int64 payload, one
	// column-kind dispatch per batch.
	look := func(v int64) []int32 {
		h := hashInt64(v)
		if b.bloom != nil {
			bloomChecks++
			if !b.bloom.mayContain(h) {
				return nil
			}
			bloomPasses++
		}
		return b.it.lookupHashed(h, v)
	}
	sc := batchScratchPool.Get().(*batchScratch)
	slot := pk[0]
	var col *Vector
	if slot >= 0 {
		col = &p.Cols[slot]
	}
	for bb := lo; bb < hi; bb += bs {
		end := min(bb+bs, hi)
		sc.rows = p.physBatch(bb, end, sc.rows)
		rows := sc.rows
		if cap(sc.posts) < len(rows) {
			sc.posts = make([][]int32, len(rows))
		}
		posts := sc.posts[:len(rows)]
		switch {
		case col == nil: // absent attribute: NULL key, matches nothing
			for k := range rows {
				posts[k] = nil
			}
		case col.Kind == ColInt:
			for k, i := range rows {
				if col.IsNull(int(i)) {
					posts[k] = nil
				} else {
					posts[k] = look(col.Ints[i])
				}
			}
		case col.Kind == ColFloat:
			for k, i := range rows {
				posts[k] = nil
				if col.IsNull(int(i)) {
					continue
				}
				// Integral floats equal their int64 under join
				// normalization; NaN and fractional floats fail the
				// round-trip check and match nothing.
				f := col.Floats[i]
				if n := int64(f); float64(n) == f {
					posts[k] = look(n)
				}
			}
		case col.Kind == ColStr:
			for k := range rows {
				posts[k] = nil // strings never equal numeric keys
			}
		default: // ColMixed
			for k, i := range rows {
				posts[k] = nil
				switch v := col.Vals[i]; v.Kind {
				case KindInt:
					posts[k] = look(v.I)
				case KindFloat:
					if math.IsNaN(v.F) {
						continue
					}
					if n := int64(v.F); float64(n) == v.F {
						posts[k] = look(n)
					}
				}
			}
		}
		fn(rows, posts)
	}
	batchScratchPool.Put(sc)
}

// idxPairs is one morsel's accumulated (left, right) output pairs.
type idxPairs struct {
	li, ri []int32
}

func (c *idxPairs) add(li, ri int32) {
	c.li = append(c.li, li)
	c.ri = append(c.ri, ri)
}

// concatPairs concatenates per-morsel pair chunks in morsel order; a
// single chunk is returned as is.
func concatPairs(chunks []idxPairs) (li, ri []int32) {
	if len(chunks) == 1 {
		return chunks[0].li, chunks[0].ri
	}
	nl, nr := 0, 0
	for _, c := range chunks {
		nl += len(c.li)
		nr += len(c.ri)
	}
	li = make([]int32, 0, nl)
	ri = make([]int32, 0, nr)
	for _, c := range chunks {
		li = append(li, c.li...)
		ri = append(ri, c.ri...)
	}
	return li, ri
}

// probeMorsels is the probe driver of every hash join: it probes the
// rows of p (keys pk) against bld — over morsels on the task scheduler
// when par, as one morsel otherwise — and hands each batch's physical
// probe rows and posting lists to emit together with the morsel's own
// output chunk. The chunks come back in morsel order.
func (e *Exec) probeMorsels(p *ColTable, pk []int, bld *batchBuild, par bool, emit func(c *idxPairs, rows []int32, posts [][]int32)) []idxPairs {
	n := p.Card()
	if !par {
		chunks := make([]idxPairs, 1)
		e.probePostings(p, pk, bld, 0, n, func(rows []int32, posts [][]int32) { emit(&chunks[0], rows, posts) })
		return chunks
	}
	chunks := make([]idxPairs, e.morselCount(n))
	e.forMorsels(n, func(m, lo, hi int) {
		e.probePostings(p, pk, bld, lo, hi, func(rows []int32, posts [][]int32) { emit(&chunks[m], rows, posts) })
	})
	return chunks
}

// restoreLeftOrder turns the pairs of a left-side build — (logical left,
// physical right), emitted in right-input order — into the nested-loop
// sequence: one stable counting pass keyed by the logical left row, so
// each left row's matches keep right-input order. The count array is
// sized by the left input's logical cardinality nl. With outer, a left
// row without matches keeps one slot, padded by ri = -1; pairs with
// li = -1 (the unmatched right rows of a full outerjoin) follow last, in
// right-input order. The returned lidx are logical.
func restoreLeftOrder(nl int, chunks []idxPairs, outer bool) (lidx, ridx []int32) {
	next := make([]int32, nl)
	total, unmatched := 0, nl
	for _, c := range chunks {
		total += len(c.li)
		for _, li := range c.li {
			if li >= 0 {
				if next[li] == 0 {
					unmatched--
				}
				next[li]++
			}
		}
	}
	if outer {
		total += unmatched
	}
	lidx = make([]int32, total)
	ridx = make([]int32, total)
	// Exclusive prefix sums: next[j] becomes left row j's first slot.
	off := int32(0)
	for j, n := range next {
		next[j] = off
		if n == 0 && outer {
			lidx[off], ridx[off] = int32(j), -1
			n = 1
		}
		off += n
	}
	for _, c := range chunks {
		for k, li := range c.li {
			p := off
			if li >= 0 {
				p = next[li]
				next[li]++
			} else {
				off++
			}
			lidx[p], ridx[p] = li, c.ri[k]
		}
	}
	return lidx, ridx
}

// toPhys maps logical row indices of t to physical ones in place; -1
// (padding) stays.
func toPhys(t *ColTable, idx []int32) {
	if t.Sel == nil {
		return
	}
	for k, i := range idx {
		if i >= 0 {
			idx[k] = t.Sel[i]
		}
	}
}

// gatherConcat assembles the concatenated join output: left columns
// gathered by lidx, right columns by ridx (physical indices), one typed
// gather per column (fanned out over the task scheduler when par). Index
// -1 reads the corresponding pad value; a nil pad row means NULL padding.
func (e *Exec) gatherConcat(l, r *ColTable, lidx, ridx []int32, lpad, rpad Row, par bool) *ColTable {
	out := &ColTable{Schema: l.Schema.Concat(r.Schema), N: len(lidx)}
	lw := l.Schema.Len()
	out.Cols = make([]Vector, lw+r.Schema.Len())
	task := func(ci int) {
		if ci < lw {
			pad := Null
			if lpad != nil {
				pad = lpad[ci]
			}
			out.Cols[ci] = gatherColPad(&l.Cols[ci], lidx, pad)
		} else {
			pad := Null
			if rpad != nil {
				pad = rpad[ci-lw]
			}
			out.Cols[ci] = gatherColPad(&r.Cols[ci-lw], ridx, pad)
		}
	}
	if par {
		e.forTasks(len(out.Cols), task)
	} else {
		for ci := range out.Cols {
			task(ci)
		}
	}
	return out
}

// selTable wraps the shared input columns under a selection vector; a nil
// sel (no surviving rows) becomes the empty selection, not "all rows".
func selTable(t *ColTable, sel []int32) *ColTable {
	if sel == nil {
		sel = []int32{}
	}
	return &ColTable{Schema: t.Schema, Cols: t.Cols, N: t.N, Sel: sel}
}

// joinKind selects the variant hashJoin runs.
type joinKind uint8

const (
	joinInner joinKind = iota
	joinSemi
	joinAnti
	joinLeftOuter
	joinFullOuter
)

// markAll sets the marks of a posting list. Every list is marked whole
// by whoever marks its first row, so a set first mark means the rest is
// (or, under a concurrent marker, will be by the barrier) set too.
func markAll(marks []atomic.Bool, posts []int32) {
	if len(posts) == 0 || marks[posts[0]].Load() {
		return
	}
	for _, i := range posts {
		marks[i].Store(true)
	}
}

// hashJoin runs every hash join but the groupjoin. It builds on the
// input with fewer logical rows (ties: the right one) — a decision on
// sizes alone, both inputs being materialized — and probes with the
// other; both orientations produce the same output sequence. lpad/rpad
// pad the unmatched rows of the outerjoins (nil: NULL padding).
func (e *Exec) hashJoin(kind joinKind, l, r *ColTable, lk, rk []int, lpad, rpad Row) *ColTable {
	par := e.parFor(max(l.Card(), r.Card()))
	outer := kind == joinLeftOuter || kind == joinFullOuter
	// The Bloom filter pays only where unmatched probe rows are dropped.
	filter := func(probe *ColTable, keepsAll bool) int {
		if keepsAll {
			return -1 // every probe row is emitted: nothing to skip
		}
		return probe.Card()
	}
	if l.Card() < r.Card() {
		bld := e.buildHash(l, lk, par, filter(r, kind == joinFullOuter))
		if kind == joinSemi || kind == joinAnti {
			marks := make([]atomic.Bool, l.Card())
			e.probeMorsels(r, rk, bld, par, func(_ *idxPairs, rows []int32, posts [][]int32) {
				for k := range rows {
					markAll(marks, posts[k])
				}
			})
			var sel []int32
			for j := range marks {
				if marks[j].Load() == (kind == joinSemi) {
					sel = append(sel, l.phys(j))
				}
			}
			return selTable(l, sel)
		}
		chunks := e.probeMorsels(r, rk, bld, par, func(c *idxPairs, rows []int32, posts [][]int32) {
			for k, ri := range rows {
				if len(posts[k]) == 0 && kind == joinFullOuter {
					c.add(-1, ri)
				}
				for _, li := range posts[k] {
					c.add(li, ri)
				}
			}
		})
		lidx, ridx := restoreLeftOrder(l.Card(), chunks, outer)
		toPhys(l, lidx)
		return e.gatherConcat(l, r, lidx, ridx, lpad, rpad, par)
	}
	bld := e.buildHash(r, rk, par, filter(l, outer))
	var matched []atomic.Bool
	if kind == joinFullOuter {
		matched = make([]atomic.Bool, r.Card())
	}
	chunks := e.probeMorsels(l, lk, bld, par, func(c *idxPairs, rows []int32, posts [][]int32) {
		for k, i := range rows {
			switch {
			case kind == joinSemi || kind == joinAnti:
				// Dead rows resolve to nil postings, so the antijoin
				// keeps NULL-key rows: strict equality matches them to
				// nothing.
				if (len(posts[k]) > 0) == (kind == joinSemi) {
					c.li = append(c.li, i)
				}
				continue
			case len(posts[k]) == 0 && outer:
				c.add(i, -1)
			}
			for _, ri := range posts[k] {
				c.add(i, ri)
			}
			if matched != nil {
				markAll(matched, posts[k])
			}
		}
	})
	lidx, ridx := concatPairs(chunks)
	if kind == joinSemi || kind == joinAnti {
		return selTable(l, lidx)
	}
	for j := range matched {
		if !matched[j].Load() {
			lidx = append(lidx, -1)
			ridx = append(ridx, int32(j))
		}
	}
	toPhys(r, ridx)
	return e.gatherConcat(l, r, lidx, ridx, lpad, rpad, par)
}

// BatchHashJoin is the inner equi-join l ⋈ r.
func (e *Exec) BatchHashJoin(l, r *ColTable, lk, rk []int) *ColTable {
	return e.hashJoin(joinInner, l, r, lk, rk, nil, nil)
}

// BatchHashSemiJoin is the left semijoin l ⋉ r: a pure selection-vector
// operation, zero row copies.
func (e *Exec) BatchHashSemiJoin(l, r *ColTable, lk, rk []int) *ColTable {
	return e.hashJoin(joinSemi, l, r, lk, rk, nil, nil)
}

// BatchHashAntiJoin is the left antijoin l ▷ r: a selection keeping rows
// without a partner (NULL-key rows included — strict equality matches
// them to nothing).
func (e *Exec) BatchHashAntiJoin(l, r *ColTable, lk, rk []int) *ColTable {
	return e.hashJoin(joinAnti, l, r, lk, rk, nil, nil)
}

// BatchHashLeftOuter is the left outerjoin. pad must be a full row over
// r's schema.
func (e *Exec) BatchHashLeftOuter(l, r *ColTable, lk, rk []int, pad Row) *ColTable {
	return e.hashJoin(joinLeftOuter, l, r, lk, rk, nil, pad)
}

// BatchHashFullOuter is the full outerjoin: left rows in order with
// their matches or padding, then the unmatched right rows in right-input
// order.
func (e *Exec) BatchHashFullOuter(l, r *ColTable, lk, rk []int, lpad, rpad Row) *ColTable {
	return e.hashJoin(joinFullOuter, l, r, lk, rk, lpad, rpad)
}

// BatchHashGroupJoin is the groupjoin on the batch runtime: every left
// row is extended by the vector's aggregates over its partner bucket,
// folded in build-input order through the shared accumulator core
// (updateVals), so results equal the reference GroupJoin's. It always
// builds on the right: the right buckets are what each left row folds.
func (e *Exec) BatchHashGroupJoin(l, r *ColTable, lk, rk []int, f aggfn.Vector) *ColTable {
	bound := BindVector(f, r.Schema)
	names := append(append([]string(nil), l.Schema.Names()...), f.Outs()...)
	par := e.parFor(max(l.Card(), r.Card()))
	bld := e.buildHash(r, rk, par, -1)
	lc := l.Compact() // output appends dense agg columns alongside l's
	n := lc.Card()
	aggRows := make([][]Value, n)
	e.probeMorsels(lc, lk, bld, par, func(_ *idxPairs, rows []int32, posts [][]int32) {
		var scratch []byte
		cells := make([]aggCell, len(bound))
		for k, i := range rows {
			for c := range cells {
				cells[c] = aggCell{}
			}
			for _, ri := range posts[k] {
				ri := r.phys(int(ri))
				for c := range bound {
					a := &bound[c]
					cells[c].updateVals(a, colValue(r, a.Arg, ri), colValue(r, a.Arg2, ri), colValue(r, a.Wgt, ri), &scratch)
				}
			}
			vals := make([]Value, len(bound))
			for c := range bound {
				vals[c] = cells[c].final(&bound[c])
			}
			aggRows[i] = vals // lc is dense: physical row == logical row
		}
	})
	out := &ColTable{Schema: NewSchema(names), N: n}
	out.Cols = make([]Vector, len(names))
	copy(out.Cols, lc.Cols)
	for c := range bound {
		var b colBuilder
		for _, vals := range aggRows {
			b.append(vals[c])
		}
		out.Cols[lc.Schema.Len()+c] = b.finish()
	}
	return out
}
