package main

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"eagg/internal/algebra"
	"eagg/internal/core"
	"eagg/internal/engine"
	"eagg/internal/obs"
	"eagg/internal/plan"
	"eagg/internal/query"
	"eagg/internal/tpch"
)

// execSizes sizes exec-tpch: the factor scaling tpch.ExecutionScale.
type execSizes struct{ factor float64 }

// At factor 500 the three databases hold 200k + 150k + 150k lineitem
// rows: every hash table outgrows the per-core caches, one round over
// the six plans takes about a quarter second, and the working set stays
// inside a large shared last-level cache. At factor 1000 it did not on a
// 300 MiB-L3 host, and the run-to-run spread of the execution times
// grew from about 2% to 15–25%.
var defaultExecSizes = execSizes{factor: 500}

var execQueries = []struct {
	name  string
	build func() *query.Query
}{{"Q3", tpch.Q3}, {"Q5", tpch.Q5}, {"Q10", tpch.Q10}}

// execPlans are the two plans of every query: lazy (DPhyp, no eager
// aggregation) and eager (EA-Prune).
var execPlans = []struct {
	name string
	alg  core.Algorithm
}{{"lazy", core.AlgDPhyp}, {"eager", core.AlgEAPrune}}

// execCell is one (query, plan) pair with its reference result.
type execCell struct {
	query, plan string
	q           *query.Query
	p           *plan.Plan
	data        engine.TableData
	attrs       []string
	want        bag
	opt         optRecord // the set-up optimization that chose p
}

// execBench executes the six plans round-robin on one worker with the
// batch runtime.
type execBench struct {
	cells []execCell
	opts  engine.ExecOptions
}

// genExecData generates every query's database from the seed.
func genExecData(seed int64, s execSizes) []engine.TableData {
	out := make([]engine.TableData, len(execQueries))
	for i, eq := range execQueries {
		rng := rand.New(rand.NewSource(seed*31 + int64(i)))
		out[i] = tpch.GenerateTables(rng, eq.build(), tpch.ExecutionScaleAt(eq.name, s.factor))
	}
	return out
}

func setupExec(seed int64, s execSizes, st *setupTimes) (*execBench, error) {
	t := time.Now()
	dbs := genExecData(seed, s)
	st.datagen = time.Since(t)

	t = time.Now()
	qs := make([]*query.Query, len(execQueries))
	for i, eq := range execQueries {
		qs[i] = eq.build()
		if err := fitCatalog(qs[i], dbs[i]); err != nil {
			return nil, fmt.Errorf("%s catalog: %w", eq.name, err)
		}
	}
	st.catalog = time.Since(t)

	b := &execBench{opts: engine.ExecOptions{Runtime: engine.RuntimeBatch, Workers: 1}}
	t = time.Now()
	for i, eq := range execQueries {
		canon, err := engine.CanonicalTablesOpts(qs[i], dbs[i], b.opts)
		if err != nil {
			return nil, fmt.Errorf("%s canonical result: %w", eq.name, err)
		}
		attrs := engine.OutputAttrs(qs[i])
		want, err := digest(canon, attrs)
		if err != nil {
			return nil, fmt.Errorf("%s canonical result: %w", eq.name, err)
		}
		for _, ep := range execPlans {
			t0 := time.Now()
			res, err := core.Optimize(qs[i], core.Options{Algorithm: ep.alg, Workers: 1})
			if err != nil {
				return nil, fmt.Errorf("%s %s plan: %w", eq.name, ep.name, err)
			}
			b.cells = append(b.cells, execCell{
				query: eq.name, plan: ep.name, q: qs[i], p: res.Plan, data: dbs[i], attrs: attrs, want: want,
				opt: optRecord{stats: res.Stats, dur: time.Since(t0)},
			})
		}
	}
	st.reference = time.Since(t)

	t = time.Now()
	for _, db := range dbs {
		for _, tab := range db {
			tab.Columnar()
		}
	}
	st.columnarize = time.Since(t)

	t = time.Now()
	for i := range b.cells {
		c := &b.cells[i]
		res, _, err := engine.ExecProfiledOpts(c.q, c.p, c.data, b.opts)
		if err != nil {
			return nil, fmt.Errorf("warm-up %s %s: %w", c.query, c.plan, err)
		}
		if !c.check(res) {
			return nil, fmt.Errorf("warm-up %s %s: the result differs from the canonical result", c.query, c.plan)
		}
	}
	st.warmup = time.Since(t)
	return b, nil
}

func (b *execBench) close() {}

// check reports whether res is the cell's canonical result.
func (c *execCell) check(res *algebra.Table) bool {
	got, err := digest(res, c.attrs)
	return err == nil && got == c.want
}

func (b *execBench) run(until time.Time, limit int, traced bool) (*phase, error) {
	var rec *recorder
	start := time.Now()
	if traced {
		rec = newRecorder(start, 1)
	}
	var recs []execRecord
	p := &phase{}
	for i := 0; ; i++ {
		if limit > 0 && i >= limit || limit <= 0 && !time.Now().Before(until) {
			break
		}
		ci := i % len(b.cells)
		c := &b.cells[ci]
		var root, sid int
		var tr *obs.Trace
		var base time.Duration
		if traced {
			root = rec.begin(i, -1, "request", "request")
			sid = rec.begin(i, root, "engine.ExecProfiledOpts", "engine.exec")
			tr = obs.NewTrace()
			base = rec.now()
		}
		opts := b.opts
		opts.Trace = tr
		t0 := time.Now()
		res, stats, err := engine.ExecProfiledOpts(c.q, c.p, c.data, opts)
		d := time.Since(t0)
		r := execRecord{cell: ci, at: t0.Sub(start), dur: d, stats: stats}
		var cid int
		if traced {
			rec.end(sid)
			first := len(rec.spans)
			rec.adopt(i, sid, base, tr)
			r.join, r.group = rec.opSelf(first)
			cid = rec.begin(i, root, "check", "harness.check")
		}
		p.inside += d
		p.attempted++
		if err != nil || !c.check(res) {
			p.failed++
		}
		if err == nil {
			recs = append(recs, r)
		}
		if traced {
			rec.end(cid)
			rec.end(root)
		}
	}
	p.wall = time.Since(start)
	p.busy = p.wall
	if traced {
		p.recs = []*recorder{rec}
	}
	p.detail = recs
	return p, nil
}

// cellMedians returns every cell's median execution time in ms.
func (b *execBench) cellMedians(recs []execRecord) []float64 {
	per := make([][]float64, len(b.cells))
	for _, r := range recs {
		per[r.cell] = append(per[r.cell], ms(r.dur))
	}
	out := make([]float64, len(b.cells))
	for i := range per {
		out[i] = median(per[i])
	}
	return out
}

func (b *execBench) endToEnd(p *phase) map[string]float64 {
	var bySlice [][]execRecord
	for _, r := range p.detail.([]execRecord) {
		k := int(r.at / window)
		for len(bySlice) <= k {
			bySlice = append(bySlice, nil)
		}
		bySlice[k] = append(bySlice[k], r)
	}
	var typical, slowest []float64
	for _, recs := range bySlice {
		meds := b.cellMedians(recs)
		if slices.Contains(meds, 0) {
			continue // a slice that missed a cell
		}
		typical = append(typical, geomean(meds))
		slowest = append(slowest, slices.Max(meds))
	}
	// The eager plan's estimated cost over the lazy plan's, per query.
	var ratios []float64
	for i := 0; i+1 < len(b.cells); i += 2 {
		ratios = append(ratios, b.cells[i+1].p.Cost/b.cells[i].p.Cost)
	}
	return map[string]float64{
		"p50_ms":          median(typical),
		"tail_ms":         median(slowest),
		"goodput_per_s":   float64(p.attempted-p.failed) / p.wall.Seconds(),
		"plan_cost_ratio": geomean(ratios),
	}
}

func (b *execBench) perLayer(untraced, traced *phase) map[string]float64 {
	recs := traced.detail.([]execRecord)
	meds := b.cellMedians(recs)
	var opts []optRecord
	var qs []*query.Query
	m := map[string]float64{}
	costlier := 0.0
	for i, c := range b.cells {
		m["engine.exec_ms."+c.query+"."+c.plan] = meds[i]
		opts = append(opts, c.opt)
		if i%2 == 1 {
			m["engine.eager_speedup."+c.query] = meds[i-1] / meds[i]
			qs = append(qs, c.q)
			if c.p.Cost > b.cells[i-1].p.Cost*(1+costSlack) {
				costlier++
			}
		}
	}
	m["core.costlier_than_dphyp_frac"] = costlier / float64(len(qs))
	for k, v := range coreMetrics(opts) {
		m[k] = v
	}
	for k, v := range probeLayers(qs, core.Options{Algorithm: core.AlgEAPrune, Workers: 1}) {
		m[k] = v
	}
	for k, v := range engineMetrics(recs) {
		m[k] = v
	}
	// Allocation per execution, one execution of every cell at a time.
	var alloc uint64
	for _, c := range b.cells {
		a := allocated()
		engine.ExecProfiledOpts(c.q, c.p, c.data, b.opts)
		alloc += allocated() - a
	}
	m["engine.alloc_mb"] = float64(alloc) / (1 << 20) / float64(len(b.cells))
	return m
}
