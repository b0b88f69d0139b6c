package algebra

import (
	"fmt"
	"testing"

	"eagg/internal/aggfn"
)

// Operator-level benchmarks of the batch runtime with allocation counts:
// aggregation, the flat hash tables against Go maps, and the batch join
// pair.

// benchAggTable builds n rows over (g, v, f): an int grouping column
// cycling through the given group count, an int measure and a float
// measure — the typical typed aggregation input.
func benchAggTable(n, groups int) *Table {
	s := NewSchema([]string{"g", "v", "f"})
	t := &Table{Schema: s}
	for i := 0; i < n; i++ {
		t.Rows = append(t.Rows, Row{
			Int(int64(i % groups)),
			Int(int64(i)),
			Float(float64(i) * 0.5),
		})
	}
	return t
}

// BenchmarkHashGroupRuntimes tracks the batch grouper's time and
// allocations (input already columnar, as it is mid-pipeline): it
// allocates per group and per output column, not per input row.
func BenchmarkHashGroupRuntimes(b *testing.B) {
	f := aggfn.Vector{
		{Out: "s", Kind: aggfn.Sum, Arg: "v"},
		{Out: "c", Kind: aggfn.CountStar},
		{Out: "m", Kind: aggfn.Min, Arg: "f"},
	}
	groupBy := []string{"g"}
	for _, groups := range []int{16, 1024} {
		ct := ColTableOf(benchAggTable(1<<13, groups))
		e := NewExec(1)
		b.Run(fmt.Sprintf("runtime=batch/groups=%d", groups), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if out := e.BatchHashGroup(ct, groupBy, f); out.Card() != groups {
					b.Fatalf("got %d groups, want %d", out.Card(), groups)
				}
			}
		})
	}
}

// BenchmarkHashTable is the backend shootout behind every batch join and
// aggregation: the flat open-addressing tables against the Go maps they
// replaced, build + full probe, on int and encoded byte keys. The flat
// tables must win on allocations by construction (slab postings, no
// per-key list headers) — this benchmark keeps the rows/s and allocs/op
// numbers visible in CI.
func BenchmarkHashTable(b *testing.B) {
	const nBuild, nProbe, dups = 1 << 12, 1 << 14, 4
	ikeys := make([]int64, nBuild)
	for i := range ikeys {
		ikeys[i] = int64(i/dups) * 2654435761
	}
	bkeys := make([][]byte, nBuild)
	for i := range bkeys {
		bkeys[i] = []byte(fmt.Sprintf("key-%06d", i/dups))
	}
	b.Run("keys=int/backend=flat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t := newIntTable(nBuild)
			for r, k := range ikeys {
				t.insert(k, int32(r))
			}
			t.finalize()
			hits := 0
			for p := 0; p < nProbe; p++ {
				hits += len(t.lookup(ikeys[p%nBuild]))
			}
			if hits != nProbe*dups {
				b.Fatalf("hits %d, want %d", hits, nProbe*dups)
			}
		}
	})
	b.Run("keys=int/backend=map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := make(map[int64][]int32, nBuild)
			for r, k := range ikeys {
				m[k] = append(m[k], int32(r))
			}
			hits := 0
			for p := 0; p < nProbe; p++ {
				hits += len(m[ikeys[p%nBuild]])
			}
			if hits != nProbe*dups {
				b.Fatalf("hits %d, want %d", hits, nProbe*dups)
			}
		}
	})
	b.Run("keys=bytes/backend=flat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t := newBytesTable(nBuild)
			for r, k := range bkeys {
				t.insert(hashKey(k), k, int32(r))
			}
			t.finalize()
			hits := 0
			for p := 0; p < nProbe; p++ {
				hits += len(t.lookup(bkeys[p%nBuild]))
			}
			if hits != nProbe*dups {
				b.Fatalf("hits %d, want %d", hits, nProbe*dups)
			}
		}
	})
	b.Run("keys=bytes/backend=map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := make(map[string][]int32, nBuild)
			for r, k := range bkeys {
				m[string(k)] = append(m[string(k)], int32(r))
			}
			hits := 0
			for p := 0; p < nProbe; p++ {
				hits += len(m[string(bkeys[p%nBuild])])
			}
			if hits != nProbe*dups {
				b.Fatalf("hits %d, want %d", hits, nProbe*dups)
			}
		}
	})
}

// BenchmarkBatchHashJoin measures the inner hash join (build + probe +
// typed gather) on a fk-pk shape with int keys, once with the small pk
// table on the right and once with the same two tables swapped. Both
// arms build on the small table; small=left also pays the counting pass
// that restores nested-loop order, so the ratio of the two arms prices
// that pass.
func BenchmarkBatchHashJoin(b *testing.B) {
	const nfk, npk = 1 << 13, 1 << 10
	fk := &Table{Schema: NewSchema([]string{"fk", "x"})}
	for i := 0; i < nfk; i++ {
		fk.Rows = append(fk.Rows, Row{Int(int64(i % npk)), Int(int64(i))})
	}
	pk := &Table{Schema: NewSchema([]string{"pk", "y"})}
	for i := 0; i < npk; i++ {
		pk.Rows = append(pk.Rows, Row{Int(int64(i)), Int(int64(-i))})
	}
	big, small := ColTableOf(fk), ColTableOf(pk)
	e := NewExec(1)
	k := []int{0}
	for _, arm := range []struct {
		name string
		l, r *ColTable
	}{
		{"small=right", big, small},
		{"small=left", small, big},
	} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if out := e.BatchHashJoin(arm.l, arm.r, k, k); out.Card() != nfk {
					b.Fatalf("got %d rows, want %d", out.Card(), nfk)
				}
			}
		})
	}
}
