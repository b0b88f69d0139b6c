package algebra

import (
	"fmt"
	"math"
	"runtime"
	"testing"
)

// buildSideTable builds n logical rows over (id, ki, kf, kx, v): an int
// key with NULLs (a typed int column), a float key with NaN, integral and
// fractional values (a typed float column), a mixed-kind key and a float
// payload. With sel the rows are a selection over a base of 2n+1 rows —
// logical row i is physical row 2i+1 — whose unselected rows carry keys
// that would match, so a selection bug shows up as extra output.
func buildSideTable(prefix string, n, salt int, sel bool) *ColTable {
	s := NewSchema([]string{prefix + "id", prefix + "ki", prefix + "kf", prefix + "kx", prefix + "v"})
	tb := &Table{Schema: s}
	phys := n
	if sel {
		phys = 2*n + 1
	}
	for i := 0; i < phys; i++ {
		j := i + salt
		ki := Int(int64(j % 5))
		if j%7 == 3 {
			ki = Null
		}
		var kf Value
		switch j % 6 {
		case 0:
			kf = Float(math.NaN())
		case 1:
			kf = Float(float64(j%5) + 0.5)
		case 2:
			kf = Null
		default:
			kf = Float(float64(j % 5)) // integral: joins with Int
		}
		tb.Rows = append(tb.Rows, Row{Int(int64(i)), ki, kf, mixedKey(j), Float(float64(i) * 0.25)})
	}
	ct := ColTableOf(tb)
	if sel {
		ct.Sel = make([]int32, n)
		for i := range ct.Sel {
			ct.Sel[i] = int32(2*i + 1)
		}
	}
	return ct
}

// TestHashJoinBuildSide pins the build-side rule: every hash join builds
// on the input with fewer logical rows (ties: the right one) and still
// produces the nested-loop sequence of the map-tuple reference operators.
// It sweeps the five join kinds over left smaller than, larger than and
// equal to right; the single-int, encoded-key and partitioned build
// paths; NULL, NaN and integral-float keys and selection vectors on
// either side; workers 1/4 × batch sizes 1/7/1024 with a forced morsel
// size. Every build must hold exactly the smaller side's distinct live
// keys and postings.
func TestHashJoinBuildSide(t *testing.T) {
	t.Run("sweep", func(t *testing.T) {
		keySets := []struct {
			name   string
			lk, rk []int
		}{
			{"int", []int{1}, []int{1}},
			{"int-float", []int{1}, []int{2}},
			{"float-int", []int{2}, []int{1}},
			{"mixed", []int{3}, []int{3}},
			{"two-col", []int{1, 3}, []int{1, 3}},
		}
		var execs []struct {
			name string
			e    *Exec
		}
		for _, w := range []int{1, 4} {
			for _, bs := range []int{1, 7, 1024} {
				execs = append(execs, struct {
					name string
					e    *Exec
				}{fmt.Sprintf("w%d-b%d", w, bs), NewExec(w).WithMorselSize(3).WithBatchSize(bs)})
			}
		}
		paths := map[string]bool{}
		for _, size := range [][2]int{{11, 23}, {23, 11}, {17, 17}} {
			for _, sel := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
				l := buildSideTable("l.", size[0], 0, sel[0])
				r := buildSideTable("r.", size[1], 2, sel[1])
				lt, rt := l.Table(), r.Table()
				lr, rr := lt.Rel(), rt.Rel()
				rpad := NullRow(r.Schema)
				rpad[4] = Int(1) // Int default into a float column → mixed demotion
				lpad := NullRow(l.Schema)
				lpad[0] = Int(7)
				for _, ks := range keySets {
					pred := keyPred(l.Schema, r.Schema, ks.lk, ks.rk)
					ref := map[string]*Rel{
						"join":      Join(lr, rr, pred),
						"semi":      SemiJoin(lr, rr, pred),
						"anti":      AntiJoin(lr, rr, pred),
						"leftouter": LeftOuter(lr, rr, pred, defaultsOf(r.Schema, rpad)),
						"fullouter": FullOuter(lr, rr, pred, defaultsOf(l.Schema, lpad), defaultsOf(r.Schema, rpad)),
					}
					ops := map[string]func(e *Exec) *ColTable{
						"join":      func(e *Exec) *ColTable { return e.BatchHashJoin(l, r, ks.lk, ks.rk) },
						"semi":      func(e *Exec) *ColTable { return e.BatchHashSemiJoin(l, r, ks.lk, ks.rk) },
						"anti":      func(e *Exec) *ColTable { return e.BatchHashAntiJoin(l, r, ks.lk, ks.rk) },
						"leftouter": func(e *Exec) *ColTable { return e.BatchHashLeftOuter(l, r, ks.lk, ks.rk, rpad) },
						"fullouter": func(e *Exec) *ColTable { return e.BatchHashFullOuter(l, r, ks.lk, ks.rk, lpad, rpad) },
					}
					build, bt, bk := r, rt, ks.rk
					if l.Card() < r.Card() {
						build, bt, bk = l, lt, ks.lk
					}
					wantKeys, wantRows := distinctBuildKeys(bt, bk), 0
					for _, posts := range postingsModel(bt, bt, bk, bk) {
						if len(posts) > 0 {
							wantRows++
						}
					}
					seq := map[string]*Table{}
					for op, run := range ops {
						seq[op] = run(NewExec(1)).Table()
					}
					for _, x := range execs {
						par := x.e.parFor(max(l.Card(), r.Card()))
						b := x.e.buildHash(build, bk, par, -1)
						switch {
						case par && b.pt != nil:
							paths["partitioned"] = true
						case !par && b.it != nil:
							paths["int"] = true
						case !par && b.bt != nil && !(len(bk) == 1 && build.Cols[bk[0]].Kind == ColInt):
							paths["encoded"] = true
						default:
							t.Fatalf("%s/%s: build took the wrong path", ks.name, x.name)
						}
						for op, run := range ops {
							label := fmt.Sprintf("%dx%d/sel%v/%s/%s/%s", size[0], size[1], sel, ks.name, x.name, op)
							hs := &HashStats{}
							got := run(x.e.WithHashStats(hs))
							sameAsRef(t, label, ref[op], got)
							identicalRows(t, label+" ≡ sequential", seq[op], got.Table())
							if s := hs.Snapshot(); s.Entries != int64(wantKeys) || s.BuildRows != int64(wantRows) {
								t.Fatalf("%s: build holds %d keys and %d postings, want the smaller side's %d and %d",
									label, s.Entries, s.BuildRows, wantKeys, wantRows)
							}
						}
					}
				}
			}
		}
		for _, p := range []string{"int", "encoded", "partitioned"} {
			if !paths[p] {
				t.Errorf("the %s build path never ran", p)
			}
		}
	})

	// A 10-row selection over a 1<<20-row base: the count array of the
	// order restoration (left side small) and the match marks of a right
	// build (right side small) are sized by the selection, not the base.
	// A base-sized int32 array alone would be 4 MiB.
	t.Run("selection-over-large-base", func(t *testing.T) {
		const base, small, other = 1 << 20, 10, 100
		bigKeys := make([]int64, base)
		for i := range bigKeys {
			bigKeys[i] = int64(i % 50)
		}
		sel := make([]int32, small)
		for i := range sel {
			sel[i] = int32(i * (base / small))
		}
		selected := &ColTable{Schema: NewSchema([]string{"s.k"}), Cols: []Vector{{Kind: ColInt, Ints: bigKeys}}, N: base, Sel: sel}
		denseKeys := make([]int64, other)
		for i := range denseKeys {
			denseKeys[i] = int64(i % 70)
		}
		dense := &ColTable{Schema: NewSchema([]string{"d.k"}), Cols: []Vector{{Kind: ColInt, Ints: denseKeys}}, N: other}
		k := []int{0}
		pad := NullRow(dense.Schema)
		for _, e := range []*Exec{NewExec(1), NewExec(4).WithMorselSize(16)} {
			for name, run := range map[string]func() *ColTable{
				"join-left-small":      func() *ColTable { return e.BatchHashJoin(selected, dense, k, k) },
				"semi-left-small":      func() *ColTable { return e.BatchHashSemiJoin(selected, dense, k, k) },
				"anti-left-small":      func() *ColTable { return e.BatchHashAntiJoin(selected, dense, k, k) },
				"leftouter-left-small": func() *ColTable { return e.BatchHashLeftOuter(selected, dense, k, k, pad) },
				"fullouter-left-small": func() *ColTable { return e.BatchHashFullOuter(selected, dense, k, k, nil, pad) },
				"fullouter-right-small": func() *ColTable {
					return e.BatchHashFullOuter(dense, selected, k, k, nil, NullRow(selected.Schema))
				},
			} {
				// The least of three runs: a base-sized array shows up in
				// every run, while a stray allocation elsewhere in the
				// process does not.
				least := uint64(math.MaxUint64)
				for range 3 {
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					run()
					runtime.ReadMemStats(&after)
					least = min(least, after.TotalAlloc-before.TotalAlloc)
				}
				if least > 256<<10 {
					t.Fatalf("w%d/%s: allocated %d bytes, want far below a base-sized array (%d bytes)", e.Workers(), name, least, 4*base)
				}
			}
		}
	})
}
