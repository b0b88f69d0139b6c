package algebra

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"eagg/internal/aggfn"
)

// identicalTables asserts two tables are bit-identical: same schema in
// slot order, same rows as a sequence, every value equal in kind and
// payload (floats compared by bit pattern, so even -0 vs +0 or different
// summation orders are caught).
func identicalTables(t *testing.T, label string, want, got *Table) {
	t.Helper()
	if fmt.Sprint(want.Schema.Names()) != fmt.Sprint(got.Schema.Names()) {
		t.Fatalf("%s: schema differs: %v vs %v", label, want.Schema.Names(), got.Schema.Names())
	}
	if len(want.Rows) != len(got.Rows) {
		t.Fatalf("%s: cardinality differs: want %d got %d", label, len(want.Rows), len(got.Rows))
	}
	for i := range want.Rows {
		for j := range want.Rows[i] {
			a, b := want.Rows[i][j], got.Rows[i][j]
			if a.Kind != b.Kind || a.I != b.I || a.S != b.S ||
				math.Float64bits(a.F) != math.Float64bits(b.F) {
				t.Fatalf("%s: row %d slot %d differs: %v (%#v) vs %v (%#v)", label, i, j, a, a, b, b)
			}
		}
	}
}

// TestParallelOpsIdenticalToSequential is the operator-level determinism
// contract of the morsel-driven runtime: for every operator, every
// worker count and every morsel size, the parallel variant must produce
// a bit-identical copy of the sequential output — same rows, same
// order, same float payloads.
func TestParallelOpsIdenticalToSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	execs := []*Exec{
		NewExec(2).WithMorselSize(1),
		NewExec(3).WithMorselSize(2),
		NewExec(8).WithMorselSize(7),
		NewExec(4), // default morsel size: single-morsel fallback on small data
	}
	for trial := 0; trial < 120; trial++ {
		la := []string{"l.k1", "l.k2", "l.v"}
		ra := []string{"r.k1", "r.k2", "r.w"}
		l := randomRel(rng, la, rng.Intn(30))
		r := randomRel(rng, ra, rng.Intn(30))
		for _, tu := range r.Tuples {
			// r.w and l.v are aggregated below; keep them numeric (the
			// runtime's relations are typed consistently per attribute).
			if tu["r.w"].Kind == KindString {
				tu["r.w"] = Int(int64(len(tu["r.w"].S)))
			}
		}
		for _, tu := range l.Tuples {
			if tu["l.v"].Kind == KindString {
				tu["l.v"] = Int(int64(len(tu["l.v"].S)))
			}
		}
		lt, rt := ColTableOf(TableOf(l)), ColTableOf(TableOf(r))

		nKeys := rng.Intn(3)
		var lk, rk []int
		for i := 0; i < nKeys; i++ {
			lk = append(lk, lt.Schema.MustSlot(la[i]))
			rk = append(rk, rt.Schema.MustSlot(ra[i]))
		}
		pad := NullRow(rt.Schema)
		pad[rt.Schema.MustSlot("r.w")] = Int(1)
		lpad := NullRow(lt.Schema)
		gjVec := aggfn.Vector{
			{Out: "gj_cnt", Kind: aggfn.CountStar},
			{Out: "gj_sum", Kind: aggfn.Sum, Arg: "r.w"},
		}

		seq, e := NewExec(1), execs[trial%len(execs)]
		same := func(label string, want, got *ColTable) {
			t.Helper()
			identicalTables(t, label, want.Table(), got.Table())
		}
		same("join", seq.BatchHashJoin(lt, rt, lk, rk), e.BatchHashJoin(lt, rt, lk, rk))
		same("semi", seq.BatchHashSemiJoin(lt, rt, lk, rk), e.BatchHashSemiJoin(lt, rt, lk, rk))
		same("anti", seq.BatchHashAntiJoin(lt, rt, lk, rk), e.BatchHashAntiJoin(lt, rt, lk, rk))
		same("leftouter",
			seq.BatchHashLeftOuter(lt, rt, lk, rk, pad), e.BatchHashLeftOuter(lt, rt, lk, rk, pad))
		same("fullouter",
			seq.BatchHashFullOuter(lt, rt, lk, rk, lpad, pad), e.BatchHashFullOuter(lt, rt, lk, rk, lpad, pad))
		same("groupjoin",
			seq.BatchHashGroupJoin(lt, rt, lk, rk, gjVec), e.BatchHashGroupJoin(lt, rt, lk, rk, gjVec))
		mwant, err := seq.MergeJoin(lt, rt, lk, rk, true, true)
		if err != nil {
			t.Fatal(err)
		}
		mgot, err := e.MergeJoin(lt, rt, lk, rk, true, true)
		if err != nil {
			t.Fatal(err)
		}
		same("mergejoin", mwant, mgot)

		groupBy := []string{"l.k1", "l.k2"}[:1+rng.Intn(2)]
		aggVec := aggfn.Vector{
			{Out: "cnt", Kind: aggfn.CountStar},
			{Out: "mn", Kind: aggfn.Min, Arg: "l.v"},
			{Out: "cd", Kind: aggfn.CountDistinct, Arg: "l.v"},
		}
		same("group",
			seq.BatchHashGroup(lt, groupBy, aggVec), e.BatchHashGroup(lt, groupBy, aggVec))
		gwant, err := seq.SortGroup(lt, groupBy, aggVec, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		ggot, err := e.SortGroup(lt, groupBy, aggVec, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		same("sortgroup", gwant, ggot)

		wSlots := []int{rt.Schema.MustSlot("r.w"), rt.Schema.MustSlot("r.w")}
		same("product",
			seq.BatchExtendProduct(rt, "x", wSlots), e.BatchExtendProduct(rt, "x", wSlots))
	}
}

// TestParallelFloatSumOrder pins the core determinism promise for
// order-sensitive float aggregation: sums whose value depends on
// accumulation order (catastrophic cancellation between big and small
// terms) must come out bit-identical under parallel aggregation, because
// each group's rows are folded in global input order by exactly one
// partition task.
func TestParallelFloatSumOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tab := NewTable(NewSchema([]string{"g", "v"}))
	for i := 0; i < 5000; i++ {
		g := Int(int64(rng.Intn(17)))
		var v Value
		switch rng.Intn(3) {
		case 0:
			v = Float(1e16)
		case 1:
			v = Float(-1e16)
		default:
			v = Float(rng.Float64())
		}
		tab.Rows = append(tab.Rows, Row{g, v})
	}
	vec := aggfn.Vector{
		{Out: "s", Kind: aggfn.Sum, Arg: "v"},
		{Out: "a", Kind: aggfn.Avg, Arg: "v"},
	}
	ct := ColTableOf(tab)
	want := NewExec(1).BatchHashGroup(ct, []string{"g"}, vec).Table()
	for _, workers := range []int{2, 4, 8} {
		e := NewExec(workers).WithMorselSize(64)
		identicalTables(t, fmt.Sprintf("workers=%d", workers), want, e.BatchHashGroup(ct, []string{"g"}, vec).Table())
	}
}

// TestExecSettings pins the Exec settings resolution: 0 and negatives
// resolve to GOMAXPROCS, nil and 1 are sequential, WithMorselSize(0)
// restores the default.
func TestExecSettings(t *testing.T) {
	if got, want := NewExec(0).Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("NewExec(0).Workers() = %d, want GOMAXPROCS %d", got, want)
	}
	if got, want := NewExec(-3).Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("NewExec(-3).Workers() = %d, want GOMAXPROCS %d", got, want)
	}
	if got := NewExec(5).Workers(); got != 5 {
		t.Errorf("NewExec(5).Workers() = %d", got)
	}
	var nilExec *Exec
	if nilExec.Workers() != 1 || nilExec.par() {
		t.Error("nil Exec must be sequential with 1 worker")
	}
	if NewExec(1).par() {
		t.Error("Workers 1 must select the sequential path")
	}
	if e := NewExec(4).WithMorselSize(0); e.morsel != 0 {
		t.Errorf("WithMorselSize(0) = %d, want adaptive default 0", e.morsel)
	}
}

// TestSizeFor pins the adaptive morsel sizing: explicit sizes are
// exact, the default yields several morsels per worker within the
// [minMorselSize, DefaultMorselSize] clamp, and sizing is a pure
// function of the input cardinality.
func TestSizeFor(t *testing.T) {
	e := NewExec(4)
	if got := e.WithMorselSize(7).sizeFor(1_000_000); got != 7 {
		t.Errorf("explicit size: got %d, want 7", got)
	}
	if got := e.sizeFor(10); got != minMorselSize {
		t.Errorf("tiny input: got %d, want floor %d", got, minMorselSize)
	}
	if got := e.sizeFor(100_000_000); got != DefaultMorselSize {
		t.Errorf("huge input: got %d, want cap %d", got, DefaultMorselSize)
	}
	n := 4000
	size := e.sizeFor(n)
	morsels := e.morselCount(n)
	if morsels < e.workers {
		t.Errorf("n=%d: only %d morsels for %d workers (size %d)", n, morsels, e.workers, size)
	}
	if size < minMorselSize || size > DefaultMorselSize {
		t.Errorf("size %d outside clamp", size)
	}
}

// TestForMorsels checks the scheduler: every row index is covered
// exactly once for assorted sizes and worker counts, including the
// empty input.
func TestForMorsels(t *testing.T) {
	for _, n := range []int{0, 1, 5, 100, 1000} {
		for _, workers := range []int{1, 2, 7} {
			for _, size := range []int{1, 3, 4096} {
				e := NewExec(workers).WithMorselSize(size)
				covered := make([]atomic.Int32, n)
				e.forMorsels(n, func(m, lo, hi int) {
					if lo < 0 || hi > n || lo >= hi {
						t.Errorf("n=%d: bad morsel [%d,%d)", n, lo, hi)
					}
					for i := lo; i < hi; i++ {
						covered[i].Add(1)
					}
				})
				for i := range covered {
					if covered[i].Load() != 1 {
						t.Fatalf("n=%d w=%d size=%d: row %d covered %d times", n, workers, size, i, covered[i].Load())
					}
				}
			}
		}
	}
}

// TestPartitionedBuildMatchesBuildSide: the partitioned parallel build
// must hold exactly the sequential build's keys and postings, split by
// key hash — both checked against the nested-loop postings model.
func TestPartitionedBuildMatchesBuildSide(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		ra := []string{"r.k1", "r.k2"}
		r := TableOf(randomRel(rng, ra, rng.Intn(40)))
		rc := ColTableOf(r)
		rk := []int{0, 1}[:1+rng.Intn(2)]

		seq := NewExec(1)
		par := NewExec(4).WithMorselSize(3)
		sb := seq.buildHash(rc, rk, false, -1)
		pb := par.buildHash(rc, rk, true, -1)
		if pb.pt == nil {
			t.Fatal("parallel build is not partitioned")
		}
		if got, want := pb.distinct(), sb.distinct(); got != want {
			t.Fatalf("partitioned table has %d keys, sequential %d", got, want)
		}
		if got, want := sb.distinct(), distinctBuildKeys(r, rk); got != want {
			t.Fatalf("sequential table has %d keys, model %d", got, want)
		}
		checkPostings(t, fmt.Sprintf("trial %d sequential", trial), seq, sb, r, r, rk, rk)
		checkPostings(t, fmt.Sprintf("trial %d partitioned", trial), par, pb, r, r, rk, rk)
	}
}
