package algebra

import (
	"fmt"
	"math/rand"
	"testing"

	"eagg/internal/aggfn"
)

// randomKeyedTable builds a table with a key column drawn from a small
// domain (plus NULLs and the odd float twin), a payload column, and —
// when sorted is set — rows ordered by the key so the eliminated-sort
// paths are exercised.
func randomKeyedTable(rng *rand.Rand, prefix string, rows int, sorted bool, withNulls bool) *ColTable {
	t := &Table{Schema: NewSchema([]string{prefix + ".k", prefix + ".v"})}
	keys := make([]int64, rows)
	for i := range keys {
		keys[i] = int64(rng.Intn(8))
	}
	if sorted {
		for i := 1; i < rows; i++ {
			for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
				keys[j], keys[j-1] = keys[j-1], keys[j]
			}
		}
	}
	for i := 0; i < rows; i++ {
		k := Value(Int(keys[i]))
		if withNulls && !sorted && rng.Intn(6) == 0 {
			k = Null
		} else if !sorted && rng.Intn(7) == 0 {
			k = Float(float64(keys[i])) // joins must match across kinds
		}
		t.Rows = append(t.Rows, Row{k, Int(int64(rng.Intn(100)))})
	}
	return ColTableOf(t)
}

// colTable builds a columnar table from literal rows.
func colTable(names []string, rows ...Row) *ColTable {
	return ColTableOf(&Table{Schema: NewSchema(names), Rows: rows})
}

// identical asserts two columnar tables hold the same logical rows, value
// for value.
func identical(t *testing.T, label string, wantC, gotC *ColTable) {
	t.Helper()
	want, got := wantC.Table(), gotC.Table()
	if len(want.Rows) != len(got.Rows) {
		t.Fatalf("%s: %d rows vs %d rows", label, len(want.Rows), len(got.Rows))
	}
	for i := range want.Rows {
		if len(want.Rows[i]) != len(got.Rows[i]) {
			t.Fatalf("%s: row %d width differs", label, i)
		}
		for j := range want.Rows[i] {
			if want.Rows[i][j] != got.Rows[i][j] {
				t.Fatalf("%s: row %d slot %d: %v vs %v", label, i, j, want.Rows[i][j], got.Rows[i][j])
			}
		}
	}
}

// TestMergeJoinsMatchHash pins the central contract of the sort-based
// layer: every merge operator emits exactly the hash operator's output
// sequence — for sorted inputs with the sort eliminated, unsorted inputs
// with the sort performed, and any worker count and batch size.
func TestMergeJoinsMatchHash(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	lk, rk := []int{0}, []int{0}
	for trial := 0; trial < 60; trial++ {
		lSorted, rSorted := trial%2 == 0, trial%3 == 0
		l := randomKeyedTable(rng, "l", 1+rng.Intn(40), lSorted, true)
		r := randomKeyedTable(rng, "r", 1+rng.Intn(40), rSorted, true)
		pad := NullRow(r.Schema)
		hash := NewExec(1)
		for _, workers := range []int{1, 8} {
			ex := NewExec(workers).WithMorselSize(3).WithBatchSize(1 + trial%5)
			label := fmt.Sprintf("trial=%d workers=%d lSorted=%v rSorted=%v", trial, workers, lSorted, rSorted)

			got, err := ex.MergeJoin(l, r, lk, rk, !lSorted, !rSorted)
			if err != nil {
				t.Fatalf("%s join: %v", label, err)
			}
			identical(t, label+" join", hash.BatchHashJoin(l, r, lk, rk), got)

			got, err = ex.MergeSemiJoin(l, r, lk, rk, !lSorted, !rSorted)
			if err != nil {
				t.Fatalf("%s semi: %v", label, err)
			}
			identical(t, label+" semi", hash.BatchHashSemiJoin(l, r, lk, rk), got)

			got, err = ex.MergeAntiJoin(l, r, lk, rk, !lSorted, !rSorted)
			if err != nil {
				t.Fatalf("%s anti: %v", label, err)
			}
			identical(t, label+" anti", hash.BatchHashAntiJoin(l, r, lk, rk), got)

			got, err = ex.MergeLeftOuter(l, r, lk, rk, !lSorted, !rSorted, pad)
			if err != nil {
				t.Fatalf("%s leftouter: %v", label, err)
			}
			identical(t, label+" leftouter", hash.BatchHashLeftOuter(l, r, lk, rk, pad), got)
		}
	}
}

// TestSortGroupMatchesHash pins the same contract for sort-group
// aggregation, including order-sensitive float sums: group boundaries by
// run (eliminated) or by sort (performed), output always equals
// BatchHashGroup bit for bit.
func TestSortGroupMatchesHash(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := aggfn.Vector{
		{Out: "cnt", Kind: aggfn.CountStar},
		{Out: "s", Kind: aggfn.Sum, Arg: "t.v"},
		{Out: "m", Kind: aggfn.Min, Arg: "t.v"},
	}
	for trial := 0; trial < 60; trial++ {
		sorted := trial%2 == 0
		rows := randomKeyedTable(rng, "t", 1+rng.Intn(60), sorted, true).Table()
		// Float payloads make summation order observable.
		for i, row := range rows.Rows {
			if i%3 == 0 {
				row[1] = Float(float64(rng.Intn(1000)) / 7)
			}
		}
		in := ColTableOf(rows)
		want := NewExec(1).BatchHashGroup(in, []string{"t.k"}, f)
		for _, workers := range []int{1, 8} {
			ex := NewExec(workers).WithMorselSize(4)
			var verify []int
			if sorted {
				verify = []int{0} // eliminated path: verify the run column
			}
			got, err := ex.SortGroup(in, []string{"t.k"}, f, !sorted, verify)
			if err != nil {
				t.Fatalf("trial=%d workers=%d sorted=%v: %v", trial, workers, sorted, err)
			}
			identical(t, fmt.Sprintf("trial=%d workers=%d sorted=%v", trial, workers, sorted), want, got)
		}
	}
}

// TestMergeJoinVerifiesOrder pins the safety net: claiming an eliminated
// sort on an unsorted input is an execution error, not a wrong result.
func TestMergeJoinVerifiesOrder(t *testing.T) {
	l := colTable([]string{"l.k"}, Row{Int(2)}, Row{Int(1)})
	r := colTable([]string{"r.k"}, Row{Int(1)})
	if _, err := NewExec(1).MergeJoin(l, r, []int{0}, []int{0}, false, true); err == nil {
		t.Fatal("merge join accepted an unsorted input declared sorted")
	}
	// NULL keys are filtered before the check, so a NULL between ordered
	// keys is fine.
	l2 := colTable([]string{"l.k"}, Row{Int(1)}, Row{Null}, Row{Int(2)})
	if _, err := NewExec(1).MergeJoin(l2, r, []int{0}, []int{0}, false, true); err != nil {
		t.Fatalf("NULL key between ordered keys rejected: %v", err)
	}
}

// TestSortGroupKindSensitive pins that the sort comparator refines
// numeric equality by kind: Int(2) and Float(2.0) stay separate groups,
// exactly like the hash layer's kind-sensitive grouping keys.
func TestSortGroupKindSensitive(t *testing.T) {
	in := colTable([]string{"t.k"},
		Row{Float(2)}, Row{Int(2)}, Row{Null}, Row{Int(2)}, Row{Null}, Row{Float(2)})
	f := aggfn.Vector{{Out: "cnt", Kind: aggfn.CountStar}}
	want := NewExec(1).BatchHashGroup(in, []string{"t.k"}, f)
	got, err := NewExec(1).SortGroup(in, []string{"t.k"}, f, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	identical(t, "kind-sensitive groups", want, got)
	if got.Card() != 3 {
		t.Fatalf("want 3 groups (Float 2, Int 2, NULL), got %d", got.Card())
	}
}

// TestSortGroupVerifiesOrder pins the streaming aggregation's safety
// net: an eliminated sort whose covering order prefix the data violates
// is an execution error, never a silently duplicated group.
func TestSortGroupVerifiesOrder(t *testing.T) {
	in := colTable([]string{"t.k"}, Row{Int(1)}, Row{Int(2)}, Row{Int(1)})
	f := aggfn.Vector{{Out: "cnt", Kind: aggfn.CountStar}}
	for _, workers := range []int{1, 8} {
		ex := NewExec(workers).WithMorselSize(1)
		if _, err := ex.SortGroup(in, []string{"t.k"}, f, false, []int{0}); err == nil {
			t.Fatalf("workers=%d: streaming aggregation accepted an unsorted run column", workers)
		}
	}
	// A genuinely sorted column (NULLs first) streams fine.
	ok := colTable([]string{"t.k"}, Row{Null}, Row{Int(1)}, Row{Int(1)}, Row{Int(2)})
	got, err := NewExec(1).SortGroup(ok, []string{"t.k"}, f, false, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	identical(t, "sorted stream", NewExec(1).BatchHashGroup(ok, []string{"t.k"}, f), got)
}

// TestSortLayerOnSelections feeds zero-copy semijoin outputs (selection
// vectors over shared columns) into the sort-based operators, as the
// engine does when a semijoin sits below a merge join or a sort-group:
// on either merge side and under streaming aggregation, with the sort
// performed and with the input order verified instead, at several batch
// sizes and worker counts. Every output must equal the hash operator's
// sequence and the map-tuple reference result.
func TestSortLayerOnSelections(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	f := aggfn.Vector{
		{Out: "cnt", Kind: aggfn.CountStar},
		{Out: "s", Kind: aggfn.Sum, Arg: "l.f"},
		{Out: "mx", Kind: aggfn.Max, Arg: "l.v"},
	}
	for trial := 0; trial < 12; trial++ {
		// l is sorted on l.k, so any selection over it is too.
		lrows := randomKeyedTable(rng, "l", 1+rng.Intn(80), true, false).Table()
		lt := &Table{Schema: lrows.Schema.Extend("l.f")}
		for _, row := range lrows.Rows {
			lt.Rows = append(lt.Rows, append(row, Float(float64(rng.Intn(1000))/7)))
		}
		flt := &Table{Schema: NewSchema([]string{"f.v"})}
		for v := 0; v < 100; v += 1 + rng.Intn(3) {
			flt.Rows = append(flt.Rows, Row{Int(int64(v))})
		}
		r := randomKeyedTable(rng, "r", 1+rng.Intn(40), false, true)
		l, fc := ColTableOf(lt), ColTableOf(flt)
		lr, rr := lt.Rel(), r.Table().Rel()
		selRef := SemiJoin(lr, flt.Rel(), EqAttr("l.v", "f.v"))
		pad := NullRow(r.Schema)
		pad[1] = Int(1)
		k, lk, rk := []int{0}, []int{0}, []int{0}

		for _, bs := range []int{1, 7, 1024} {
			for _, workers := range []int{1, 4} {
				ex := NewExec(workers).WithMorselSize(3).WithBatchSize(bs)
				sel := ex.BatchHashSemiJoin(l, fc, []int{1}, []int{0})
				if sel.Sel == nil {
					t.Fatal("semijoin output is not a selection")
				}
				for _, verified := range []bool{false, true} {
					label := fmt.Sprintf("trial=%d batch=%d workers=%d verified=%v", trial, bs, workers, verified)
					check := func(op string, want *Rel, hash, got *ColTable, err error) {
						t.Helper()
						if err != nil {
							t.Fatalf("%s %s: %v", label, op, err)
						}
						identical(t, label+" "+op+" ≡ hash", hash, got)
						sameAsRef(t, label+" "+op+" ≡ reference", want, got)
					}
					pred, rpred := EqAttr("l.k", "r.k"), EqAttr("r.k", "l.k")
					got, err := ex.MergeJoin(sel, r, lk, rk, !verified, true)
					check("join", Join(selRef, rr, pred), ex.BatchHashJoin(sel, r, lk, rk), got, err)
					got, err = ex.MergeJoin(r, sel, rk, lk, true, !verified)
					check("join (selected right)", Join(rr, selRef, rpred), ex.BatchHashJoin(r, sel, rk, lk), got, err)
					got, err = ex.MergeSemiJoin(sel, r, lk, rk, !verified, true)
					check("semi", SemiJoin(selRef, rr, pred), ex.BatchHashSemiJoin(sel, r, lk, rk), got, err)
					got, err = ex.MergeAntiJoin(sel, r, lk, rk, !verified, true)
					check("anti", AntiJoin(selRef, rr, pred), ex.BatchHashAntiJoin(sel, r, lk, rk), got, err)
					got, err = ex.MergeLeftOuter(sel, r, lk, rk, !verified, true, pad)
					check("leftouter", LeftOuter(selRef, rr, pred, defaultsOf(r.Schema, pad)),
						ex.BatchHashLeftOuter(sel, r, lk, rk, pad), got, err)

					var verify []int
					if verified {
						verify = k
					}
					got, err = ex.SortGroup(sel, []string{"l.k"}, f, !verified, verify)
					check("sortgroup", Group(selRef, []string{"l.k"}, f), ex.BatchHashGroup(sel, []string{"l.k"}, f), got, err)
				}
				// Grouping on an unsorted column always sorts.
				got, err := ex.SortGroup(sel, []string{"l.v"}, f, true, nil)
				if err != nil {
					t.Fatal(err)
				}
				identical(t, "sortgroup l.v ≡ hash", ex.BatchHashGroup(sel, []string{"l.v"}, f), got)
				sameAsRef(t, "sortgroup l.v ≡ reference", Group(selRef, []string{"l.v"}, f), got)
			}
		}
	}
}
