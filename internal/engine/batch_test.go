package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"eagg/internal/algebra"
	"eagg/internal/core"
	"eagg/internal/randquery"
)

// TestBatchParallelDeterminism is the batch runtime's version of the
// central determinism contract: on random queries and data, executing an
// optimized plan — for every (workers, batch-size) pair — must return a
// table bit-identical to the sequential default-batch path,
// order-sensitive float sums included, and that result must equal the
// frozen nested-loop executor's (ExecRef) as a bag.
func TestBatchParallelDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(90217))
	algs := []core.Options{
		{Algorithm: core.AlgDPhyp},
		{Algorithm: core.AlgEAPrune},
		{Algorithm: core.AlgH1},
	}
	batchSizes := []int{1, 7, 1024}
	queries := 0
	for n := 2; n <= 6; n++ {
		for trial := 0; trial < 6; trial++ {
			q := randquery.Generate(rng, randquery.Params{Relations: n})
			rdata := RandomData(rng, q, 14)
			data := rdata.Tables()
			queries++
			opts := algs[(queries-1)%len(algs)]
			res, err := core.Optimize(q, opts)
			if err != nil {
				t.Fatal(err)
			}
			seq, err := ExecTablesOpts(q, res.Plan, data, ExecOptions{Workers: 1})
			if err != nil {
				t.Fatalf("n=%d trial=%d sequential: %v", n, trial, err)
			}
			ref, err := ExecRef(q, res.Plan, rdata)
			if err != nil {
				t.Fatalf("n=%d trial=%d reference: %v", n, trial, err)
			}
			if !algebra.EqualBags(ref, seq.Rel(), OutputAttrs(q)) {
				t.Fatalf("n=%d trial=%d %v: Exec ≢ ExecRef\nref:\n%v\ngot:\n%v", n, trial, opts.Algorithm, ref, seq.Rel())
			}
			for _, bs := range batchSizes {
				for _, workers := range []int{1, 8} {
					eo := ExecOptions{Workers: workers, BatchSize: bs}
					if workers > 1 {
						eo.MorselSize = 2
					}
					got, err := ExecTablesOpts(q, res.Plan, data, eo)
					if err != nil {
						t.Fatalf("n=%d trial=%d batch=%d workers=%d: %v", n, trial, bs, workers, err)
					}
					identicalTables(t,
						fmt.Sprintf("n=%d trial=%d %v batch=%d workers=%d", n, trial, opts.Algorithm, bs, workers),
						seq, got)
				}
			}
		}
	}
	if queries < 25 {
		t.Fatalf("workload too small: %d queries", queries)
	}
}

// TestExecStatsHashTelemetry pins that hash-table telemetry flows
// through ExecProfiledOpts: execution builds flat tables, so Builds > 0
// with a sane load factor.
func TestExecStatsHashTelemetry(t *testing.T) {
	rng := rand.New(rand.NewSource(90218))
	q := randquery.Generate(rng, randquery.Params{Relations: 4})
	data := RandomData(rng, q, 14).Tables()
	res, err := core.Optimize(q, core.Options{Algorithm: core.AlgEAPrune})
	if err != nil {
		t.Fatal(err)
	}
	_, batch, err := ExecProfiledOpts(q, res.Plan, data, ExecOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if batch.Hash.Builds == 0 || batch.Hash.Entries == 0 || batch.Hash.BuildRows == 0 {
		t.Fatalf("execution reported no flat-table builds: %+v", batch.Hash)
	}
	if lf := batch.Hash.LoadFactor(); lf <= 0 || lf > 0.75 {
		t.Fatalf("batch load factor %v outside (0, 0.75]", lf)
	}
}
