package algebra

import (
	"fmt"
	"math"
	"testing"

	"eagg/internal/aggfn"
)

// Differential tests of the batch operators against the map-tuple
// reference operators (joins.go, grouping.go). TPC-H generated data is
// all-Int, so these tests build columns of every physical kind — typed
// int/float/string with NULL bitmaps, mixed-kind fallbacks, -0.0, NaN,
// integral floats — and assert that every batch operator reproduces the
// reference result tuple for tuple, in the reference order, sequentially
// and under the morsel-parallel variants, across batch sizes; and that
// every (workers, batch size) configuration is bit-identical to the
// sequential one.

// batchExecs is the (workers, morsel, batch-size) matrix every
// differential test runs. Explicit morsel sizes force the parallel
// machinery onto tiny inputs.
func batchExecs() map[string]*Exec {
	return map[string]*Exec{
		"seq-default": nil,
		"seq-b1":      NewExec(1).WithBatchSize(1),
		"seq-b3":      NewExec(1).WithBatchSize(3),
		"par-b1":      NewExec(8).WithMorselSize(2).WithBatchSize(1),
		"par-b7":      NewExec(8).WithMorselSize(3).WithBatchSize(7),
		"par-b1024":   NewExec(8).WithMorselSize(2).WithBatchSize(1024),
	}
}

// identicalRows fails unless want and got agree as value sequences, bit
// for bit (float payloads compared by Float64bits, so -0.0 ≠ +0.0 and
// NaN payloads must match).
func identicalRows(t *testing.T, label string, want, got *Table) {
	t.Helper()
	wn, gn := want.Schema.Names(), got.Schema.Names()
	if fmt.Sprint(wn) != fmt.Sprint(gn) {
		t.Fatalf("%s: schema %v != %v", label, gn, wn)
	}
	if len(want.Rows) != len(got.Rows) {
		t.Fatalf("%s: %d rows, want %d", label, len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		for j := range want.Rows[i] {
			a, b := want.Rows[i][j], got.Rows[i][j]
			if a.Kind != b.Kind || a.I != b.I || a.S != b.S ||
				math.Float64bits(a.F) != math.Float64bits(b.F) {
				t.Fatalf("%s: row %d col %d: got %v (kind %v, bits %x), want %v (kind %v, bits %x)",
					label, i, j, b, b.Kind, math.Float64bits(b.F), a, a.Kind, math.Float64bits(a.F))
			}
		}
	}
}

// sameAsRef fails unless got holds exactly the reference relation's
// tuples in the reference order, compared over got's schema. Values
// compare by their exact rendering (kind-tagged; floats round-trip, so
// -0.0 ≠ +0.0; all NaNs render alike).
func sameAsRef(t *testing.T, label string, want *Rel, got *ColTable) {
	t.Helper()
	names := got.Schema.Names()
	if len(want.Attrs) != len(names) {
		t.Fatalf("%s: schema %v, reference %v", label, names, want.Attrs)
	}
	for _, a := range names {
		if !want.HasAttr(a) {
			t.Fatalf("%s: schema %v, reference %v", label, names, want.Attrs)
		}
	}
	gr := got.Table().Rel()
	if len(want.Tuples) != len(gr.Tuples) {
		t.Fatalf("%s: %d rows, reference %d\ngot:\n%v\nwant:\n%v", label, len(gr.Tuples), len(want.Tuples), gr, want)
	}
	for i := range want.Tuples {
		if encodeTuple(want.Tuples[i], names) != encodeTuple(gr.Tuples[i], names) {
			t.Fatalf("%s: row %d differs\ngot:\n%v\nwant:\n%v", label, i, gr, want)
		}
	}
}

// keyPred is the reference predicate of paired key slots: a conjunction
// of strict attribute equalities.
func keyPred(ls, rs *Schema, lk, rk []int) Pred {
	var ps []Pred
	for i := range lk {
		ps = append(ps, EqAttr(ls.Name(lk[i]), rs.Name(rk[i])))
	}
	return AndPred(ps...)
}

// defaultsOf is the reference default vector of a padding row: its
// non-NULL entries.
func defaultsOf(s *Schema, pad Row) Defaults {
	d := Defaults{}
	for i, v := range pad {
		if !v.IsNull() {
			d[s.Name(i)] = v
		}
	}
	return d
}

// mixedKey produces a key-domain value cycling through every kind the
// join encoding distinguishes: ints, integral floats (normalize to the
// int encoding), fractional floats, NULLs and NaNs (match nothing).
func mixedKey(i int) Value {
	switch i % 7 {
	case 0:
		return Int(int64(i % 5))
	case 1:
		return Float(float64(i % 5)) // integral float — joins with Int
	case 2:
		return Null
	case 3:
		return Float(math.NaN())
	case 4:
		return Float(float64(i%5) + 0.5)
	case 5:
		return Str(fmt.Sprintf("k%d", i%4))
	default:
		return Int(int64(i % 4))
	}
}

// batchTestTables builds a left and right table with columns of every
// physical kind. Key columns come in a typed-int flavor (km), a
// typed-float flavor (kf) and a mixed flavor (kx).
func batchTestTables() (l, r *Table) {
	ls := NewSchema([]string{"lid", "lkm", "lkf", "lkx", "lf", "ls"})
	l = &Table{Schema: ls}
	for i := 0; i < 41; i++ {
		km := Int(int64(i % 6))
		if i%9 == 4 {
			km = Null
		}
		kf := Float(float64(i % 4))
		if i%8 == 5 {
			kf = Float(math.NaN())
		}
		lf := Float(float64(i) * 1.25)
		if i%11 == 3 {
			lf = Float(math.Copysign(0, -1)) // -0.0
		}
		if i%13 == 7 {
			lf = Null
		}
		l.Rows = append(l.Rows, Row{
			Int(int64(i)), km, kf, mixedKey(i), lf, Str(fmt.Sprintf("s%d", i%5)),
		})
	}
	rs := NewSchema([]string{"rid", "rkm", "rkf", "rkx", "rv", "rw", "rs"})
	r = &Table{Schema: rs}
	for i := 0; i < 53; i++ {
		km := Int(int64(i % 7))
		if i%10 == 6 {
			km = Null
		}
		rv := Int(int64(i * 3))
		if i%6 == 2 {
			rv = Null
		}
		r.Rows = append(r.Rows, Row{
			Int(int64(1000 + i)), km, Float(float64(i % 4)), mixedKey(i + 2),
			rv, Float(float64(i) / 8), Str(fmt.Sprintf("r%d", i%6)),
		})
	}
	return l, r
}

// TestBatchJoinsMatchRow checks every batch join against the map-tuple
// reference operator, and every configuration against the sequential
// one bit for bit.
func TestBatchJoinsMatchRow(t *testing.T) {
	l, r := batchTestTables()
	keySets := []struct {
		name   string
		lk, rk []int
	}{
		{"int", []int{1}, []int{1}},
		{"float-vs-int", []int{2}, []int{1}}, // integral-float normalization
		{"mixed", []int{3}, []int{3}},
		{"two-col", []int{1, 3}, []int{1, 3}},
	}
	npad := NullRow(r.Schema)
	vpad := NullRow(r.Schema)
	vpad[4] = Int(1) // engine-style default vector into an int column
	vpad[5] = Int(0) // Int default into a float column → mixed demotion
	lpad := NullRow(l.Schema)
	lpad[0] = Int(7)

	lr, rr := l.Rel(), r.Rel()
	lc, rc := ColTableOf(l), ColTableOf(r)
	for _, ks := range keySets {
		pred := keyPred(l.Schema, r.Schema, ks.lk, ks.rk)
		ref := map[string]*Rel{
			"join":               Join(lr, rr, pred),
			"semi":               SemiJoin(lr, rr, pred),
			"anti":               AntiJoin(lr, rr, pred),
			"leftouter-null":     LeftOuter(lr, rr, pred, nil),
			"leftouter-defaults": LeftOuter(lr, rr, pred, defaultsOf(r.Schema, vpad)),
			"fullouter":          FullOuter(lr, rr, pred, defaultsOf(l.Schema, lpad), defaultsOf(r.Schema, vpad)),
		}
		run := func(e *Exec) map[string]*ColTable {
			return map[string]*ColTable{
				"join":               e.BatchHashJoin(lc, rc, ks.lk, ks.rk),
				"semi":               e.BatchHashSemiJoin(lc, rc, ks.lk, ks.rk),
				"anti":               e.BatchHashAntiJoin(lc, rc, ks.lk, ks.rk),
				"leftouter-null":     e.BatchHashLeftOuter(lc, rc, ks.lk, ks.rk, npad),
				"leftouter-defaults": e.BatchHashLeftOuter(lc, rc, ks.lk, ks.rk, vpad),
				"fullouter":          e.BatchHashFullOuter(lc, rc, ks.lk, ks.rk, lpad, vpad),
			}
		}
		seq := run(NewExec(1))
		for name, e := range batchExecs() {
			got := run(e)
			for op, want := range ref {
				label := fmt.Sprintf("%s/%s/%s", ks.name, name, op)
				sameAsRef(t, label, want, got[op])
				identicalRows(t, label+" ≡ sequential", seq[op].Table(), got[op].Table())
			}
		}
	}
}

// aggColumnsTable builds the aggregation-input table: group columns of
// several kinds, argument columns typed int/float/string plus a
// numeric-mixed column, with NULLs sprinkled through all of them and a
// singleton group whose only float value is -0.0 (pinning addTo's
// first-assignment semantics — a zero-initialized sum would flip it to
// +0.0).
func aggColumnsTable() *Table {
	s := NewSchema([]string{"g1", "g2", "ai", "af", "as", "am", "bi", "wi"})
	tb := &Table{Schema: s}
	for i := 0; i < 67; i++ {
		g1 := Int(int64(i % 5))
		if i%17 == 9 {
			g1 = Null // NULLs form their own group
		}
		ai := Int(int64(i * 2))
		if i%7 == 3 {
			ai = Null
		}
		af := Float(float64(i) * 0.3)
		if i%9 == 1 {
			af = Float(math.NaN())
		}
		if i%13 == 5 {
			af = Null
		}
		as := Str(fmt.Sprintf("v%02d", (i*7)%10))
		if i%15 == 8 {
			as = Null
		}
		var am Value // numeric-mixed: Int / Float / NULL
		switch i % 3 {
		case 0:
			am = Int(int64(i))
		case 1:
			am = Float(float64(i) + 0.5)
		default:
			am = Null
		}
		bi := Int(int64(i%4 + 1))
		if i%19 == 11 {
			bi = Null
		}
		tb.Rows = append(tb.Rows, Row{
			g1, Str(fmt.Sprintf("g%d", i%3)), ai, af, as, am, bi, Int(int64(i%3 + 1)),
		})
	}
	// Singleton group: sum over exactly one -0.0.
	tb.Rows = append(tb.Rows, Row{
		Int(999), Str("gz"), Null, Float(math.Copysign(0, -1)), Null, Null, Int(1), Int(1),
	})
	return tb
}

func aggTestVector() aggfn.Vector {
	return aggfn.Vector{
		{Out: "cstar", Kind: aggfn.CountStar},
		{Out: "cnt", Kind: aggfn.Count, Arg: "ai"},
		{Out: "si", Kind: aggfn.Sum, Arg: "ai"},
		{Out: "sf", Kind: aggfn.Sum, Arg: "af"},
		{Out: "sm", Kind: aggfn.Sum, Arg: "am"},
		{Out: "sti", Kind: aggfn.SumTimes, Arg: "ai", Arg2: "bi"},
		{Out: "stf", Kind: aggfn.SumTimes, Arg: "af", Arg2: "bi"},
		{Out: "sin", Kind: aggfn.SumIfNotNull, Arg: "af", Arg2: "bi"},
		{Out: "sinm", Kind: aggfn.SumIfNotNull, Arg: "ai", Arg2: "am"},
		{Out: "mni", Kind: aggfn.Min, Arg: "ai"},
		{Out: "mxi", Kind: aggfn.Max, Arg: "ai"},
		{Out: "mnf", Kind: aggfn.Min, Arg: "af"},
		{Out: "mxf", Kind: aggfn.Max, Arg: "af"},
		{Out: "mns", Kind: aggfn.Min, Arg: "as"},
		{Out: "mxs", Kind: aggfn.Max, Arg: "as"},
		{Out: "avi", Kind: aggfn.Avg, Arg: "ai"},
		{Out: "avf", Kind: aggfn.Avg, Arg: "af"},
		{Out: "avm", Kind: aggfn.AvgMerge, Arg: "ai", Arg2: "bi", Weight: "wi"},
		{Out: "avw", Kind: aggfn.AvgWeighted, Arg: "af", Arg2: "bi"},
		{Out: "sd", Kind: aggfn.SumDistinct, Arg: "ai"},
		{Out: "cd", Kind: aggfn.CountDistinct, Arg: "as"},
		{Out: "ad", Kind: aggfn.AvgDistinct, Arg: "af"},
		{Out: "gone", Kind: aggfn.Sum, Arg: "absent"},
	}
}

// TestBatchGroupMatchesRow checks batch aggregation of every aggregate
// kind against the reference Group, and every configuration against the
// sequential one bit for bit.
func TestBatchGroupMatchesRow(t *testing.T) {
	tb := aggColumnsTable()
	f := aggTestVector()
	tc := ColTableOf(tb)
	for _, groupBy := range [][]string{
		{"g1"}, {"g2"}, {"g1", "g2"}, {"af"}, {"absent"}, {},
	} {
		want := Group(tb.Rel(), groupBy, f)
		seq := NewExec(1).BatchHashGroup(tc, groupBy, f).Table()
		for name, e := range batchExecs() {
			label := fmt.Sprintf("group%v/%s", groupBy, name)
			got := e.BatchHashGroup(tc, groupBy, f)
			sameAsRef(t, label, want, got)
			identicalRows(t, label+" ≡ sequential", seq, got.Table())
		}
	}
}

func TestBatchGroupJoinMatchesRow(t *testing.T) {
	l, r := batchTestTables()
	f := aggfn.Vector{
		{Out: "n", Kind: aggfn.CountStar},
		{Out: "sv", Kind: aggfn.Sum, Arg: "rv"},
		{Out: "sw", Kind: aggfn.Sum, Arg: "rw"},
		{Out: "mw", Kind: aggfn.Max, Arg: "rw"},
		{Out: "cs", Kind: aggfn.CountDistinct, Arg: "rs"},
	}
	want := GroupJoin(l.Rel(), r.Rel(), EqAttr("lkm", "rkm"), f)
	lc, rc := ColTableOf(l), ColTableOf(r)
	seq := NewExec(1).BatchHashGroupJoin(lc, rc, []int{1}, []int{1}, f).Table()
	for name, e := range batchExecs() {
		got := e.BatchHashGroupJoin(lc, rc, []int{1}, []int{1}, f)
		sameAsRef(t, "groupjoin/"+name, want, got)
		identicalRows(t, "groupjoin/"+name+" ≡ sequential", seq, got.Table())
	}
}

// TestBatchSelectionChaining drives Sel-view outputs through downstream
// operators: semijoin → group, antijoin → join, a semijoin output as a
// build side, and groupjoin over a selected left input — the
// selection-vector composition rules end to end.
func TestBatchSelectionChaining(t *testing.T) {
	l, r := batchTestTables()
	lk, rk := []int{1}, []int{1}
	f := aggfn.Vector{
		{Out: "n", Kind: aggfn.CountStar},
		{Out: "sf", Kind: aggfn.Sum, Arg: "lf"},
		{Out: "mx", Kind: aggfn.Max, Arg: "lid"},
	}
	gjVec := aggfn.Vector{
		{Out: "n", Kind: aggfn.CountStar},
		{Out: "s", Kind: aggfn.Sum, Arg: "lf"},
	}
	lr, rr := l.Rel(), r.Rel()
	pred, rpred := EqAttr("lkm", "rkm"), EqAttr("rkm", "lkm")
	wantSemi := SemiJoin(lr, rr, pred)
	wantGroup := Group(wantSemi, []string{"ls"}, f)
	wantAnti := AntiJoin(lr, rr, pred)
	wantJoin := Join(wantAnti, rr, pred) // empty by construction, still must agree
	wantBuild := Join(rr, wantSemi, rpred)
	wantGJ := GroupJoin(rr, wantSemi, rpred, gjVec)

	lc, rc := ColTableOf(l), ColTableOf(r)
	for name, e := range batchExecs() {
		semi := e.BatchHashSemiJoin(lc, rc, lk, rk)
		sameAsRef(t, "chain-semi/"+name, wantSemi, semi)
		sameAsRef(t, "chain-semi-group/"+name, wantGroup,
			e.BatchHashGroup(semi, []string{"ls"}, f))
		anti := e.BatchHashAntiJoin(lc, rc, lk, rk)
		sameAsRef(t, "chain-anti-join/"+name, wantJoin,
			e.BatchHashJoin(anti, rc, lk, rk))
		sameAsRef(t, "chain-build-sel/"+name, wantBuild,
			e.BatchHashJoin(rc, semi, rk, lk))
		sameAsRef(t, "chain-gj-sel/"+name, wantGJ,
			e.BatchHashGroupJoin(rc, semi, rk, lk, gjVec))
	}
}

// TestBatchSemiJoinZeroCopy pins the zero-copy contract: a semijoin
// output shares its column storage with the input.
func TestBatchSemiJoinZeroCopy(t *testing.T) {
	l, r := batchTestTables()
	lc, rc := ColTableOf(l), ColTableOf(r)
	got := (*Exec)(nil).BatchHashSemiJoin(lc, rc, []int{1}, []int{1})
	if got.Sel == nil {
		t.Fatalf("semijoin output has no selection vector")
	}
	if len(got.Cols) == 0 || len(got.Cols[0].Ints) == 0 || &got.Cols[0].Ints[0] != &lc.Cols[0].Ints[0] {
		t.Fatalf("semijoin output does not share input column storage")
	}
	for i := 1; i < len(got.Sel); i++ {
		if got.Sel[i] <= got.Sel[i-1] {
			t.Fatalf("selection vector not monotone at %d: %v", i, got.Sel[:i+1])
		}
	}
}

func TestBatchExtendProductMatchesRow(t *testing.T) {
	s := NewSchema([]string{"a", "w1", "w2", "wf"})
	tb := &Table{Schema: s}
	for i := 0; i < 33; i++ {
		w2 := Int(int64(i%5 + 1))
		if i%13 == 4 {
			w2 = Null
		}
		tb.Rows = append(tb.Rows, Row{
			Int(int64(i)), Int(int64(i%3 + 1)), w2, Float(float64(i) * 0.5),
		})
	}
	tc := ColTableOf(tb)
	for _, attrs := range [][]string{{"w1", "w2"}, {"w1", "wf"}} {
		slots := s.Slots(attrs)
		want := Map(tb.Rel(), map[string]func(Tuple) Value{"prod": func(tu Tuple) Value {
			v := Int(1)
			for _, a := range attrs {
				v = Mul(v, tu.Get(a))
			}
			return v
		}})
		seq := NewExec(1).BatchExtendProduct(tc, "prod", slots).Table()
		for name, e := range batchExecs() {
			label := fmt.Sprintf("product%v/%s", attrs, name)
			got := e.BatchExtendProduct(tc, "prod", slots)
			sameAsRef(t, label, want, got)
			identicalRows(t, label+" ≡ sequential", seq, got.Table())
		}
	}
}

// postingsModel is the nested-loop ground truth of a hash build: for
// every probe row, the build rows whose keys equal it under strict join
// equality (EqStrict on every component), in build-input order.
func postingsModel(build, probe *Table, rk, pk []int) [][]int32 {
	out := make([][]int32, len(probe.Rows))
	for i, prow := range probe.Rows {
		for j, brow := range build.Rows {
			match := true
			for c := range rk {
				if !EqStrict(prow[pk[c]], brow[rk[c]]) {
					match = false
					break
				}
			}
			if match {
				out[i] = append(out[i], int32(j))
			}
		}
	}
	return out
}

// distinctBuildKeys counts the model's distinct keys: build rows with a
// partner among themselves (NULL/NaN keys have none) and no earlier one.
func distinctBuildKeys(build *Table, rk []int) int {
	n := 0
	for j, posts := range postingsModel(build, build, rk, rk) {
		if len(posts) > 0 && posts[0] == int32(j) {
			n++
		}
	}
	return n
}

// checkPostings probes the build with every row of probe on the pk slots
// and compares each resolved posting list with the nested-loop model.
func checkPostings(t *testing.T, label string, e *Exec, b *batchBuild, build, probe *Table, rk, pk []int) {
	t.Helper()
	want := postingsModel(build, probe, rk, pk)
	pc := ColTableOf(probe)
	got := make([][]int32, pc.Card())
	e.probePostings(pc, pk, b, 0, pc.Card(), func(rows []int32, posts [][]int32) {
		for k, i := range rows {
			got[i] = append([]int32(nil), posts[k]...)
		}
	})
	for i := range want {
		if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
			t.Fatalf("%s: probe row %d (%v): postings %v, want %v", label, i, probe.Rows[i], got[i], want[i])
		}
	}
}

// TestBuildSidePostings pins the posting lists of every build path — the
// sequential encoded-key table, the single-int fast path and the parallel
// partitioned table — against the nested-loop model: same keys, same row
// indices, same order. The cases include string keys sharing prefixes
// (where a key-buffer aliasing bug would show first), Int(7) and
// Float(7) sharing one posting list (join normalization), and no
// postings for NULL or NaN keys. Probing the int build with float,
// string and mixed columns covers every probe-side kind dispatch.
func TestBuildSidePostings(t *testing.T) {
	s := NewSchema([]string{"k", "v"})
	mixed := &Table{Schema: s}
	for i, k := range []Value{
		Str("aa"), Str("aab"), Str("aa"), Str("a"), Null, Str("aab"),
		Int(7), Float(7), Int(7), Float(7.5), Float(math.NaN()), Str("aa"),
	} {
		mixed.Rows = append(mixed.Rows, Row{k, Int(int64(i))})
	}
	ints := &Table{Schema: s}
	for i, k := range []Value{Int(7), Int(3), Null, Int(7), Int(-1), Int(3)} {
		ints.Rows = append(ints.Rows, Row{k, Int(int64(i))})
	}
	probe := &Table{Schema: NewSchema([]string{"pf", "ps", "pm"})}
	for _, row := range []Row{
		{Float(7), Str("7"), Int(7)},
		{Float(7.5), Null, Float(3)},
		{Float(math.NaN()), Str("a"), Null},
		{Null, Str("aa"), Float(math.NaN())},
		{Float(3), Str("aab"), Str("aa")},
		{Float(-1), Str("x"), Int(-1)},
	} {
		probe.Rows = append(probe.Rows, row)
	}
	rk := []int{0}
	for _, tc := range []struct {
		name  string
		build *Table
		e     *Exec
		par   bool
	}{
		{"seq-encoded", mixed, NewExec(1), false},
		{"seq-int", ints, NewExec(1), false},
		{"par-encoded", mixed, NewExec(4).WithMorselSize(3), true},
		{"par-int", ints, NewExec(4).WithMorselSize(2), true},
	} {
		b := tc.e.buildHash(ColTableOf(tc.build), rk, tc.par, -1)
		switch {
		case tc.par && b.pt == nil,
			!tc.par && tc.build == ints && b.it == nil,
			!tc.par && tc.build == mixed && b.bt == nil:
			t.Fatalf("%s: build took the wrong path", tc.name)
		}
		checkPostings(t, tc.name+"/self", tc.e, b, tc.build, tc.build, rk, rk)
		for c := range probe.Schema.Names() {
			checkPostings(t, fmt.Sprintf("%s/probe-%s", tc.name, probe.Schema.Name(c)), tc.e, b, tc.build, probe, rk, []int{c})
		}
		if got, want := b.distinct(), distinctBuildKeys(tc.build, rk); got != want {
			t.Fatalf("%s: build holds %d keys, want %d", tc.name, got, want)
		}
	}
	// The model itself: Int(7) and Float(7) share a posting list, and the
	// NULL/NaN rows have none.
	model := postingsModel(mixed, mixed, rk, rk)
	if fmt.Sprint(model[6]) != "[6 7 8]" {
		t.Fatalf("normalized int/float postings = %v, want [6 7 8]", model[6])
	}
	if model[4] != nil || model[10] != nil {
		t.Fatalf("NULL/NaN keys have postings: %v, %v", model[4], model[10])
	}
}

// TestDistinctScratchReuse pins the distinct accumulators against the
// shared scratch buffer: values with shared encoding prefixes must stay
// distinct, and results must match a literal enumeration.
func TestDistinctScratchReuse(t *testing.T) {
	s := NewSchema([]string{"g", "v", "n"})
	tb := &Table{Schema: s}
	add := func(g string, v Value, n int64) {
		tb.Rows = append(tb.Rows, Row{Str(g), v, Int(n)})
	}
	add("a", Str("xx"), 5)
	add("a", Str("xxy"), 5)
	add("a", Str("xx"), 7)
	add("a", Null, 9)
	add("b", Str("x"), 1)
	add("b", Str("x"), 2)
	f := aggfn.Vector{
		{Out: "cd", Kind: aggfn.CountDistinct, Arg: "v"},
		{Out: "sd", Kind: aggfn.SumDistinct, Arg: "n"},
	}
	got := NewExec(1).BatchHashGroup(ColTableOf(tb), []string{"g"}, f).Table()
	want := [][2]int64{{2, 21}, {1, 3}} // a: {xx,xxy}, 5+7+9; b: {x}, 1+2
	if len(got.Rows) != 2 {
		t.Fatalf("got %d groups, want 2", len(got.Rows))
	}
	for i, w := range want {
		if got.Rows[i][1].I != w[0] || got.Rows[i][2].I != w[1] {
			t.Fatalf("group %d: got (%v, %v), want %v", i, got.Rows[i][1], got.Rows[i][2], w)
		}
	}
	// And every configuration agrees.
	for name, e := range batchExecs() {
		identicalRows(t, "distinct/"+name, got, e.BatchHashGroup(ColTableOf(tb), []string{"g"}, f).Table())
	}
}

// TestColTableRoundTrip pins Table → ColTable → Table as the identity on
// every value, including NaN payloads and -0.0.
func TestColTableRoundTrip(t *testing.T) {
	l, r := batchTestTables()
	identicalRows(t, "roundtrip-l", l, ColTableOf(l).Table())
	identicalRows(t, "roundtrip-r", r, ColTableOf(r).Table())
	agg := aggColumnsTable()
	identicalRows(t, "roundtrip-agg", agg, ColTableOf(agg).Table())
	if c := agg.Columnar(); c != agg.Columnar() {
		t.Fatalf("Columnar cache not stable")
	}
}
