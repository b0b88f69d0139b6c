package engine_test

import (
	"fmt"
	"math/rand"
	"testing"

	"eagg/internal/algebra"
	"eagg/internal/core"
	"eagg/internal/engine"
	"eagg/internal/tpch"
)

// TestBatchTPCHShapes runs every TPC-H query shape — eager and lazy plans
// from several enumerators, hash and sort-annotated physical layers — and
// requires bit-identity across batch sizes plus bag-equality with the
// canonical evaluation and with the frozen nested-loop reference
// (CanonicalRef).
func TestBatchTPCHShapes(t *testing.T) {
	for name, q := range tpch.Queries() {
		tables := tpch.GenerateTables(rand.New(rand.NewSource(5)), q, tpch.ExecutionScale(name))
		attrs := engine.OutputAttrs(q)
		want, err := engine.CanonicalTables(q, tables)
		if err != nil {
			t.Fatal(err)
		}
		data := engine.Data{}
		for id, tab := range tables {
			data[id] = tab.Rel()
		}
		ref, err := engine.CanonicalRef(q, data)
		if err != nil {
			t.Fatal(err)
		}
		if !algebra.EqualBags(ref, want.Rel(), attrs) {
			t.Fatalf("%s: canonical differs from CanonicalRef", name)
		}
		for _, opt := range []core.Options{
			{Algorithm: core.AlgDPhyp},
			{Algorithm: core.AlgH1},
			{Algorithm: core.AlgEAPrune},
			{Algorithm: core.AlgDPhyp, Phys: core.PhysModeAuto},
		} {
			label := fmt.Sprintf("%s/%v/%v", name, opt.Algorithm, opt.Phys)
			res, err := core.Optimize(q, opt)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			got, err := engine.ExecTablesOpts(q, res.Plan, tables, engine.ExecOptions{Workers: 1})
			if err != nil {
				t.Fatalf("%s exec: %v", label, err)
			}
			for _, bs := range []int{1, 7} {
				batch, err := engine.ExecTablesOpts(q, res.Plan, tables,
					engine.ExecOptions{Workers: 1, BatchSize: bs})
				if err != nil {
					t.Fatalf("%s batch exec: %v", label, err)
				}
				identicalTables(t, fmt.Sprintf("%s batch=%d", label, bs), got, batch)
			}
			if !algebra.EqualBags(want.Rel(), got.Rel(), attrs) {
				t.Fatalf("%s: result differs from canonical", label)
			}
		}
	}
}
