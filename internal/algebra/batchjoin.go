package algebra

import (
	"math"
	"sync"
	"sync/atomic"

	"eagg/internal/aggfn"
)

// Batch-at-a-time hash joins over columnar tables. Each operator takes
// paired key slot lists (lk[i] on the left schema matches rk[i] on the
// right schema), builds a hash table over the right input and probes with
// the left input. Join equality is strict: rows with a NULL or NaN key
// component match nothing, exactly like the nested-loop reference
// operators with EqStrict predicates; with empty key lists the operators
// degenerate to their cross-product forms. Output row order equals the
// nested-loop order (probe rows in input order, matches in build-input
// order), so results are identical as sequences, not just as bags.
//
// Keys are encoded column-major a batch at a time (batchkey.go), probes
// accumulate (left, right) physical index pairs instead of copying rows,
// and the output columns are assembled by one typed gather per column.
// Semijoin and antijoin never copy anything: their output is a selection
// vector over the shared input columns.
//
// All indices flowing through here are physical row numbers. Because
// selection vectors are monotone (vector.go), physical order equals
// logical order, so posting lists accumulated in logical scan order, the
// morsel-ordered chunk concatenation, and the full-outer right tail all
// keep the nested-loop output sequence.

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

// buildHash hashes the build input's join keys into posting lists
// of physical row indices in build-input order: one flat table
// (sequential) or a partitioned one (parallel) holding the same keys and
// the same postings. probeCard is the probe input's
// cardinality, used only to gate the optional Bloom filter; pass -1 to
// disable it (operators that emit every probe row regardless).
func (e *Exec) buildHash(r *ColTable, rk []int, par bool, probeCard int) *batchBuild {
	bs := e.batchSize()
	hs := e.hashStats()
	n := r.Card()
	if !par && len(rk) == 1 && rk[0] >= 0 && r.Cols[rk[0]].Kind == ColInt {
		col := &r.Cols[rk[0]]
		t := newIntTable(n)
		for li := 0; li < n; li++ {
			i := r.phys(li)
			if col.IsNull(int(i)) {
				continue // NULL keys match nothing
			}
			t.insert(col.Ints[i], i)
		}
		t.finalize()
		t.record(hs)
		b := &batchBuild{it: t}
		if f := buildBloom(t.n, probeCard); f != nil {
			t.fillBloom(f)
			b.bloom = f
		}
		return b
	}
	if !par {
		t := newBytesTable(n)
		batchKeys(r, 0, n, bs, rk, true, func(rows []int32, kb *keyBatch) {
			for k, i := range rows {
				if kb.dead[k] {
					continue
				}
				t.insert(hashKey(kb.keys[k]), kb.keys[k], i)
			}
		})
		t.finalize()
		t.record(hs)
		b := &batchBuild{bt: t}
		if f := buildBloom(t.n, probeCard); f != nil {
			t.fillBloom(f)
			b.bloom = f
		}
		return b
	}
	scatters := make([]*morselScatter, e.morselCount(n))
	e.forMorsels(n, func(m, lo, hi int) {
		s := &morselScatter{}
		batchKeys(r, lo, hi, bs, rk, true, func(rows []int32, kb *keyBatch) {
			for k, i := range rows {
				if !kb.dead[k] {
					s.add(i, kb.keys[k])
				}
			}
		})
		scatters[m] = s
	})
	pt := e.buildParts(scatters)
	b := &batchBuild{pt: pt}
	keys := 0
	for _, t := range pt.parts {
		if t != nil {
			keys += t.n
		}
	}
	if f := buildBloom(keys, probeCard); f != nil {
		// The per-partition tables cache every distinct key's hash, so
		// the filter fills from them in one sequential pass — no racing
		// bit-sets inside the partition fan-out.
		for _, t := range pt.parts {
			if t != nil {
				t.fillBloom(f)
			}
		}
		b.bloom = f
	}
	return b
}

// probePostings iterates probe rows [lo, hi) of l in batches, resolving
// every row's build-side posting list — nil both for dead rows (NULL/NaN
// key components match nothing) and for keys without a partner, which
// every probe operator treats identically. On the int fast path the
// resolution is one column-kind dispatch per batch over the raw payloads;
// otherwise keys are encoded and looked up. posts is scratch; fn must not
// retain it.
func (e *Exec) probePostings(l *ColTable, lk []int, b *batchBuild, lo, hi int, fn func(rows []int32, posts [][]int32)) {
	bs := e.batchSize()
	bloomChecks, bloomPasses := 0, 0
	defer func() { e.hashStats().recordBloom(bloomChecks, bloomPasses) }()
	if b.it == nil {
		sc := batchScratchPool.Get().(*batchScratch)
		posts := sc.posts
		batchKeys(l, lo, hi, bs, lk, true, func(rows []int32, kb *keyBatch) {
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
	slot := lk[0]
	var col *Vector
	if slot >= 0 {
		col = &l.Cols[slot]
	}
	for bb := lo; bb < hi; bb += bs {
		end := min(bb+bs, hi)
		sc.rows = l.physBatch(bb, end, sc.rows)
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

// concatPairs concatenates per-morsel pair chunks in morsel order.
func concatPairs(chunks []idxPairs) (li, ri []int32) {
	total := 0
	for _, c := range chunks {
		total += len(c.li)
	}
	li = make([]int32, 0, total)
	ri = make([]int32, 0, total)
	for _, c := range chunks {
		li = append(li, c.li...)
		ri = append(ri, c.ri...)
	}
	return li, ri
}

// gatherConcat assembles the concatenated join output: left columns
// gathered by lidx, right columns by ridx, one typed gather per column
// (fanned out over the task scheduler when par). Index -1 reads the
// corresponding pad value; a nil pad row means NULL padding.
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

// BatchHashJoin is the inner equi-join l ⋈ r on the batch runtime.
func (e *Exec) BatchHashJoin(l, r *ColTable, lk, rk []int) *ColTable {
	par := e.parFor(max(l.Card(), r.Card()))
	bld := e.buildHash(r, rk, par, l.Card())
	n := l.Card()
	nm := 1
	if par {
		nm = e.morselCount(n)
	}
	chunks := make([]idxPairs, nm)
	work := func(m, lo, hi int) {
		var p idxPairs
		e.probePostings(l, lk, bld, lo, hi, func(rows []int32, posts [][]int32) {
			for k, i := range rows {
				for _, ri := range posts[k] {
					p.li = append(p.li, i)
					p.ri = append(p.ri, ri)
				}
			}
		})
		chunks[m] = p
	}
	if par {
		e.forMorsels(n, work)
	} else {
		work(0, 0, n)
	}
	lidx, ridx := concatPairs(chunks)
	return e.gatherConcat(l, r, lidx, ridx, nil, nil, par)
}

// BatchHashSemiJoin is the left semijoin l ⋉ r: a pure selection-vector
// operation, zero row copies.
func (e *Exec) BatchHashSemiJoin(l, r *ColTable, lk, rk []int) *ColTable {
	par := e.parFor(max(l.Card(), r.Card()))
	bld := e.buildHash(r, rk, par, l.Card())
	n := l.Card()
	nm := 1
	if par {
		nm = e.morselCount(n)
	}
	chunks := make([][]int32, nm)
	work := func(m, lo, hi int) {
		var sel []int32
		e.probePostings(l, lk, bld, lo, hi, func(rows []int32, posts [][]int32) {
			for k, i := range rows {
				if len(posts[k]) > 0 {
					sel = append(sel, i)
				}
			}
		})
		chunks[m] = sel
	}
	if par {
		e.forMorsels(n, work)
	} else {
		work(0, 0, n)
	}
	var sel []int32
	for _, c := range chunks {
		sel = append(sel, c...)
	}
	return selTable(l, sel)
}

// BatchHashAntiJoin is the left antijoin l ▷ r: a selection keeping rows
// without a partner (NULL-key rows included — strict equality matches
// them to nothing).
func (e *Exec) BatchHashAntiJoin(l, r *ColTable, lk, rk []int) *ColTable {
	par := e.parFor(max(l.Card(), r.Card()))
	bld := e.buildHash(r, rk, par, l.Card())
	n := l.Card()
	nm := 1
	if par {
		nm = e.morselCount(n)
	}
	chunks := make([][]int32, nm)
	work := func(m, lo, hi int) {
		var sel []int32
		e.probePostings(l, lk, bld, lo, hi, func(rows []int32, posts [][]int32) {
			for k, i := range rows {
				// Dead rows resolve to nil postings, so NULL-key rows are
				// kept — strict equality matches them to nothing.
				if len(posts[k]) == 0 {
					sel = append(sel, i)
				}
			}
		})
		chunks[m] = sel
	}
	if par {
		e.forMorsels(n, work)
	} else {
		work(0, 0, n)
	}
	var sel []int32
	for _, c := range chunks {
		sel = append(sel, c...)
	}
	return selTable(l, sel)
}

// BatchHashLeftOuter is the left outerjoin on the batch runtime. pad must
// be a full row over r's schema.
func (e *Exec) BatchHashLeftOuter(l, r *ColTable, lk, rk []int, pad Row) *ColTable {
	par := e.parFor(max(l.Card(), r.Card()))
	bld := e.buildHash(r, rk, par, -1)
	n := l.Card()
	nm := 1
	if par {
		nm = e.morselCount(n)
	}
	chunks := make([]idxPairs, nm)
	work := func(m, lo, hi int) {
		var p idxPairs
		e.probePostings(l, lk, bld, lo, hi, func(rows []int32, posts [][]int32) {
			for k, i := range rows {
				if len(posts[k]) == 0 {
					p.li = append(p.li, i)
					p.ri = append(p.ri, -1)
					continue
				}
				for _, ri := range posts[k] {
					p.li = append(p.li, i)
					p.ri = append(p.ri, ri)
				}
			}
		})
		chunks[m] = p
	}
	if par {
		e.forMorsels(n, work)
	} else {
		work(0, 0, n)
	}
	lidx, ridx := concatPairs(chunks)
	return e.gatherConcat(l, r, lidx, ridx, nil, pad, par)
}

// BatchHashFullOuter is the full outerjoin on the batch runtime. Matched
// build rows are marked through atomics (false→true only, so concurrent
// marking is order-independent); the unmatched right rows are appended
// after the probe barrier in build-input order.
func (e *Exec) BatchHashFullOuter(l, r *ColTable, lk, rk []int, lpad, rpad Row) *ColTable {
	par := e.parFor(max(l.Card(), r.Card()))
	bld := e.buildHash(r, rk, par, -1)
	n := l.Card()
	nm := 1
	if par {
		nm = e.morselCount(n)
	}
	matched := make([]atomic.Bool, r.N)
	chunks := make([]idxPairs, nm)
	work := func(m, lo, hi int) {
		var p idxPairs
		e.probePostings(l, lk, bld, lo, hi, func(rows []int32, posts [][]int32) {
			for k, i := range rows {
				if len(posts[k]) == 0 {
					p.li = append(p.li, i)
					p.ri = append(p.ri, -1)
					continue
				}
				for _, ri := range posts[k] {
					matched[ri].Store(true)
					p.li = append(p.li, i)
					p.ri = append(p.ri, ri)
				}
			}
		})
		chunks[m] = p
	}
	if par {
		e.forMorsels(n, work)
	} else {
		work(0, 0, n)
	}
	lidx, ridx := concatPairs(chunks)
	for j := 0; j < r.Card(); j++ {
		ri := r.phys(j)
		if !matched[ri].Load() {
			lidx = append(lidx, -1)
			ridx = append(ridx, ri)
		}
	}
	return e.gatherConcat(l, r, lidx, ridx, lpad, rpad, par)
}

// BatchHashGroupJoin is the groupjoin on the batch runtime: every left
// row is extended by the vector's aggregates over its partner bucket,
// folded in build-input order through the shared accumulator core
// (updateVals), so results equal the reference GroupJoin's.
func (e *Exec) BatchHashGroupJoin(l, r *ColTable, lk, rk []int, f aggfn.Vector) *ColTable {
	bound := BindVector(f, r.Schema)
	names := append(append([]string(nil), l.Schema.Names()...), f.Outs()...)
	par := e.parFor(max(l.Card(), r.Card()))
	bld := e.buildHash(r, rk, par, -1)
	lc := l.Compact() // output appends dense agg columns alongside l's
	n := lc.Card()
	aggRows := make([][]Value, n)
	work := func(m, lo, hi int) {
		var scratch []byte
		cells := make([]aggCell, len(bound))
		e.probePostings(lc, lk, bld, lo, hi, func(rows []int32, posts [][]int32) {
			for k, i := range rows {
				for c := range cells {
					cells[c] = aggCell{}
				}
				for _, ri := range posts[k] {
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
	}
	if par {
		e.forMorsels(n, work)
	} else {
		work(0, 0, n)
	}
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
