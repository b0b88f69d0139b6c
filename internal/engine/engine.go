// Package engine executes optimized plans on concrete data, so that plans
// using eager aggregation can be verified to produce exactly the same
// results as the canonical (lazy) plan — and timed against it.
//
// The execution runtime is slot-based and columnar: every operator
// resolves the attribute names it touches against its input Schema once,
// at plan-compilation time, and then works batch at a time on typed
// column vectors (internal/algebra's ColTable operators). Base tables are
// converted to columnar form at the scan and the result back to rows at
// the end; nothing in between materializes rows. Equi-joins (the only
// join form the optimizer emits) run as build/probe hash joins over
// collision-proof typed keys or as merge joins, and every grouping as
// typed hash or sort-group aggregation. A frozen map-tuple/nested-loop
// implementation of the same compilation is kept in reference.go
// (ExecRef, CanonicalRef) as the differential-testing oracle and
// benchmark baseline.
//
// The compilation realizes the mechanics behind the paper's equivalences
// in composed form. Every pushed-down grouping Γ_{G⁺} computes
//
//   - partial states for the aggregates whose sources lie inside the
//     grouped subtree (F¹ of the decompositions of Sec. 2.1.2), and
//   - one weight attribute: the count(*)-style multiplicity each grouped
//     row stands for (the c of the Groupby-Count equivalences).
//
// Joins concatenate weights; re-grouping re-aggregates partials weighted
// by the weights of *other* collapsed sides (the ⊗ operator), and the
// final grouping combines everything into the original aggregation
// vector F. Left and full outerjoins pad grouped sides with the default
// vectors F¹({⊥}) and c:1 exactly as the generalized operators of
// Sec. 2.2 demand.
package engine

import (
	"fmt"
	"math"

	"eagg/internal/aggfn"
	"eagg/internal/algebra"
	"eagg/internal/bitset"
	"eagg/internal/cost"
	"eagg/internal/obs"
	"eagg/internal/plan"
	"eagg/internal/query"
)

// Data maps relation ids to their contents in the map-tuple boundary
// representation.
type Data map[int]*algebra.Rel

// TableData maps relation ids to slot-based tables — the representation
// the runtime actually executes on. Convert once with Data.Tables, or
// generate tables directly (internal/tpch does).
type TableData map[int]*algebra.Table

// Tables converts boundary relations into slot-based tables.
func (d Data) Tables() TableData {
	out := make(TableData, len(d))
	for id, rel := range d {
		out[id] = algebra.TableOf(rel)
	}
	return out
}

// ExecOptions configures plan execution.
type ExecOptions struct {
	// Workers is the number of goroutines the morsel-driven runtime
	// uses inside each operator: 0 (or negative) selects GOMAXPROCS,
	// 1 is the exact sequential reference path, larger counts enable
	// the parallel operator variants. Results are bit-identical for
	// every value (see DESIGN.md's determinism argument).
	Workers int
	// MorselSize overrides the rows-per-morsel granularity (0 = the
	// adaptive default: several morsels per worker, clamped to
	// [64, algebra.DefaultMorselSize]). Setting it also disables the
	// small-operator sequential cutoff, forcing the parallel machinery
	// onto every operator — the tests rely on that to exercise
	// parallelism on tiny inputs. Leave it 0 in production; results
	// are identical for every size.
	MorselSize int
	// Pool, when set, supplies the goroutines for every operator
	// fan-out from a shared scheduler instead of spawning fresh ones —
	// the handoff the service layer uses to multiplex one worker pool
	// across concurrent queries. Workers still controls the (purely
	// size-derived) work decomposition, so results are bit-identical
	// with and without a pool.
	Pool *algebra.Pool
	// Deprecated: batch is the only runtime; ignored.
	Runtime Runtime
	// BatchSize overrides the rows-per-batch granularity of the columnar
	// operators (0 = algebra.DefaultBatchSize). Results are identical
	// for every size.
	BatchSize int
	// Trace, when set, records one span per plan node (operator wall
	// time, rows in/out, estimates, hash/sort telemetry) into the given
	// trace. Spans are recorded by the driver goroutine at the operator
	// barriers the profiler already uses, so collection never perturbs
	// results: the deterministic span fields (structure, names, row
	// counts — obs.Trace.Fingerprint) are bit-identical for every worker
	// count, and timing lives in separate fields excluded from the
	// determinism comparisons. Nil (the default) skips all recording; the
	// only residue is one pointer test per operator.
	Trace *obs.Trace
}

// exec resolves the options into operator execution settings.
func (o ExecOptions) exec() *algebra.Exec {
	e := algebra.NewExec(o.Workers)
	if o.MorselSize > 0 {
		e = e.WithMorselSize(o.MorselSize)
	}
	if o.Pool != nil {
		e = e.WithPool(o.Pool)
	}
	if o.BatchSize > 0 {
		e = e.WithBatchSize(o.BatchSize)
	}
	return e
}

// Runtime is the former execution-runtime selector.
//
// Deprecated: batch is the only runtime; ignored.
type Runtime int

// RuntimeBatch is the former batch-runtime selector.
//
// Deprecated: batch is the only runtime; ignored.
const RuntimeBatch Runtime = 1

// ExecStats profiles one execution: a per-operator cardinality profile
// (each join and grouping operator's measured output under its canonical
// (relation-set, grouping-attrs) key — scans and the free projection
// excluded, matching the estimator) plus the plan-level aggregates
// derived from it.
type ExecStats struct {
	// ActualCout is Σ |output| over join and grouping operators — the
	// measured value of the quantity C_out estimates.
	ActualCout float64
	// EstimatedCout is the plan's C_out estimate (root cost).
	EstimatedCout float64
	// ResultRows is the cardinality of the final result.
	ResultRows int
	// Workers is the resolved per-operator worker count the execution
	// used (1 = sequential reference path).
	Workers int
	// Ops is the per-operator cardinality profile, one entry per costed
	// operator in compile (bottom-up) order. Relation bitsets survive
	// the binder, so keys are recorded at operator-completion time.
	Ops []OpCard
	// Hash aggregates the flat hash-table telemetry of the execution
	// (hash builds, group indexes, build rows and bloom-filtered probes).
	Hash algebra.HashTableStats
}

// OpCard is one operator's measured output cardinality with its canonical
// key and the plan's estimate for the same operator.
type OpCard struct {
	Key cost.CardKey
	Est float64 // the plan node's estimated output cardinality
	Act float64 // the measured output cardinality
}

// QError is the per-operator cardinality q-error, clamped like
// ExecStats.CoutQError.
func (c OpCard) QError() float64 {
	est := math.Max(c.Est, 1)
	act := math.Max(c.Act, 1)
	if est > act {
		return est / act
	}
	return act / est
}

// WorstOp returns the operator with the largest cardinality q-error, or
// ok=false for plans without costed operators. Ties keep the first
// (deepest) operator, where the error originates.
func (s *ExecStats) WorstOp() (OpCard, bool) {
	if len(s.Ops) == 0 {
		return OpCard{}, false
	}
	worst := s.Ops[0]
	for _, op := range s.Ops[1:] {
		if op.QError() > worst.QError() {
			worst = op
		}
	}
	return worst, true
}

// HarvestInto records every measured operator cardinality into the
// overlay — the harvest half of the execute→harvest→re-optimize loop.
func (s *ExecStats) HarvestInto(o *cost.FeedbackOverlay) {
	for _, op := range s.Ops {
		o.Set(op.Key, op.Act)
	}
}

// Profile returns the measured cardinalities as a fresh FeedbackOverlay,
// ready to be passed to a re-optimization via core.Options.Stats.
func (s *ExecStats) Profile() *cost.FeedbackOverlay {
	o := cost.NewFeedbackOverlay()
	s.HarvestInto(o)
	return o
}

// CoutQError returns the q-error of the C_out estimate:
// max(est, actual)/min(est, actual) with both sides clamped to ≥ 1, the
// standard guard that keeps the metric finite and monotone when either
// cardinality is zero. A perfect estimate (including "both zero") is 1;
// an estimate of n against a measured 0 — or vice versa — degrades as n
// instead of collapsing to a sentinel indistinguishable from perfect.
// Use CoutTrivial to tell the vacuous all-zero case apart.
func (s *ExecStats) CoutQError() float64 {
	est := math.Max(s.EstimatedCout, 1)
	act := math.Max(s.ActualCout, 1)
	if est > act {
		return est / act
	}
	return act / est
}

// CoutTrivial reports whether the plan had no costed operators at all
// (both the estimate and the measurement are zero), in which case the
// q-error is vacuously 1 and reports should print it as undefined.
func (s *ExecStats) CoutTrivial() bool {
	return s.ActualCout == 0 && s.EstimatedCout == 0
}

// aggState tracks one original aggregate through the plan.
type aggState struct {
	// partial is nil while the aggregate is still raw (its argument
	// attributes flow through unaggregated). Once a grouping collapses
	// its source relations it holds the partial attribute names:
	// [p] for sum/count/min/max-style states, [s, n] for avg.
	partial []string
	// defaults aligns with partial: the {⊥} value of each partial
	// attribute, used as outerjoin defaults.
	defaults []aggfn.Default
	// cover is the relation set whose multiplicity is folded into the
	// partial.
	cover bitset.VSet
}

// weight is one multiplicity attribute with the relation set it covers.
type weight struct {
	attr  string
	cover bitset.VSet
}

// binder is the representation-independent part of plan compilation: the
// query, fresh-name generation and the aggregate bookkeeping rewrites
// shared by the slot executor and the reference executor.
type binder struct {
	q   *query.Query
	seq int
}

func (e *binder) fresh(prefix string) string {
	e.seq++
	return fmt.Sprintf("§%s%d", prefix, e.seq)
}

func (e *binder) attrNames(set bitset.VSet) []string {
	var out []string
	set.ForEach(func(a int) { out = append(out, e.q.AttrNames[a]) })
	return out
}

// compiled is an executed subplan plus its aggregate bookkeeping.
type compiled struct {
	tab     *algebra.ColTable
	weights []weight
	aggs    []aggState // indexed like the query's aggregation vector
}

// Exec executes an optimized plan against boundary data and returns the
// result relation over G ∪ A(F) (or the plain operator result for
// grouping-free queries).
func Exec(q *query.Query, p *plan.Plan, data Data) (*algebra.Rel, error) {
	tab, err := ExecTables(q, p, data.Tables())
	if err != nil {
		return nil, err
	}
	return tab.Rel(), nil
}

// ExecTables executes an optimized plan on slot-based tables on the
// sequential reference path; ExecTablesOpts adds morsel-driven
// parallelism.
func ExecTables(q *query.Query, p *plan.Plan, data TableData) (*algebra.Table, error) {
	return ExecTablesOpts(q, p, data, ExecOptions{Workers: 1})
}

// ExecTablesOpts executes an optimized plan on slot-based tables under
// the given execution options. Results are bit-identical for every
// worker count.
func ExecTablesOpts(q *query.Query, p *plan.Plan, data TableData, opts ExecOptions) (*algebra.Table, error) {
	e := &executor{binder: binder{q: q}, data: data, ex: opts.exec(), tr: opts.Trace}
	c, err := e.compile(p)
	if err != nil {
		return nil, err
	}
	return c.tab.Table(), nil
}

// ExecProfiled executes an optimized plan and reports execution
// statistics, including the measured counterpart of the plan's C_out
// estimate, on the sequential reference path.
func ExecProfiled(q *query.Query, p *plan.Plan, data TableData) (*algebra.Table, *ExecStats, error) {
	return ExecProfiledOpts(q, p, data, ExecOptions{Workers: 1})
}

// ExecProfiledOpts is ExecProfiled under the given execution options.
// Parallelism is intra-operator (morsels inside each hash operator), so
// the per-operator cardinality profile is accumulated by the single
// driver goroutine after each operator's barrier — no synchronization
// on ExecStats is needed, and the profile itself is deterministic.
func ExecProfiledOpts(q *query.Query, p *plan.Plan, data TableData, opts ExecOptions) (*algebra.Table, *ExecStats, error) {
	hs := &algebra.HashStats{}
	ex := opts.exec().WithHashStats(hs)
	stats := &ExecStats{EstimatedCout: p.Cost, Workers: ex.Workers()}
	e := &executor{binder: binder{q: q}, data: data, stats: stats, ex: ex, tr: opts.Trace, hs: hs}
	c, err := e.compile(p)
	if err != nil {
		return nil, nil, err
	}
	res := c.tab.Table()
	stats.ResultRows = res.Card()
	stats.Hash = hs.Snapshot()
	return res, stats, nil
}

type executor struct {
	binder
	data  TableData
	stats *ExecStats
	ex    *algebra.Exec
	tr    *obs.Trace         // nil = no tracing
	hs    *algebra.HashStats // live hash telemetry, for per-span deltas
}

// record accumulates one operator's actual output cardinality, both into
// the summed actual C_out and — keyed by the operator's canonical
// (relation-set, grouping-attrs) identity — into the per-operator profile
// the feedback loop harvests.
func (e *executor) record(p *plan.Plan, t *algebra.ColTable) {
	if e.stats == nil {
		return
	}
	act := float64(t.Card())
	e.stats.ActualCout += act
	if key, ok := cost.KeyOf(p); ok {
		e.stats.Ops = append(e.stats.Ops, OpCard{Key: key, Est: p.Card, Act: act})
	}
}

// compile executes one plan node (children first), wrapped in a trace
// span when tracing is on. The span is opened before the children
// compile and closed at the node's operator barrier, so spans nest by
// plan structure and a span's duration is the node's inclusive wall
// time — exactly what EXPLAIN ANALYZE prints. All recording happens on
// the driver goroutine; the morsel fan-outs inside operators never see
// the trace.
func (e *executor) compile(p *plan.Plan) (*compiled, error) {
	if e.tr == nil {
		return e.compileNode(p)
	}
	var before algebra.HashTableStats
	if e.hs != nil {
		before = e.hs.Snapshot()
	}
	sid := e.tr.Begin(spanName(e.q, p), "op")
	c, err := e.compileNode(p)
	if err != nil {
		e.tr.End(sid)
		return nil, err
	}
	// Rows in = the outputs of the direct child spans (none for scans).
	rowsIn := int64(-1)
	for _, sp := range e.tr.Spans() {
		if sp.Parent == sid {
			if rowsIn < 0 {
				rowsIn = 0
			}
			rowsIn += sp.RowsOut
		}
	}
	e.tr.SetRows(sid, rowsIn, int64(c.tab.Card()))
	annotateSpan(e.tr, sid, p, e.hs, before)
	e.tr.End(sid)
	return c, nil
}

func (e *executor) compileNode(p *plan.Plan) (*compiled, error) {
	switch p.Kind {
	case plan.NodeScan:
		tab, ok := e.data[p.Rel]
		if !ok {
			return nil, fmt.Errorf("engine: no data for relation %d", p.Rel)
		}
		return &compiled{tab: tab.Columnar(), aggs: make([]aggState, len(e.q.Aggregates))}, nil
	case plan.NodeOp:
		return e.compileOp(p)
	case plan.NodeGroup:
		child, err := e.compile(p.Left)
		if err != nil {
			return nil, err
		}
		var c *compiled
		if p.Final {
			c, err = e.finalGroup(child, p.GroupBy, p)
		} else {
			c, err = e.group(child, p)
		}
		if err != nil {
			return nil, err
		}
		e.record(p, c.tab)
		return c, nil
	case plan.NodeProject:
		child, err := e.compile(p.Left)
		if err != nil {
			return nil, err
		}
		// The projection replaces the final grouping when every group is
		// a single tuple; evaluating the final vector per group yields
		// identical results (Eqv. 42). It is free under C_out, so its
		// output is not recorded into ActualCout — matching the
		// estimator, which prices NodeProject at its child's cost.
		return e.finalGroup(child, e.q.GroupBy, nil)
	}
	return nil, fmt.Errorf("engine: unknown node kind %d", p.Kind)
}

// joinKeys resolves the plan node's equi-predicates into paired key
// slots. Predicates may arrive in commuted orientation (the DP driver
// applies commutative operators both ways), so each attribute pair is
// oriented by schema membership. Attributes absent from both sides
// resolve to slot -1, which reads as NULL and — under strict join
// equality — matches nothing, mirroring the map runtime.
func joinKeys(q *query.Query, preds []*query.Predicate, ls, rs *algebra.Schema) (lk, rk []int) {
	slotIn := func(s *algebra.Schema, name string) int {
		if i, ok := s.Slot(name); ok {
			return i
		}
		return -1
	}
	for _, p := range preds {
		for i := range p.Left {
			ln, rn := q.AttrNames[p.Left[i]], q.AttrNames[p.Right[i]]
			if !ls.Has(ln) && ls.Has(rn) {
				ln, rn = rn, ln
			}
			lk = append(lk, slotIn(ls, ln))
			rk = append(rk, slotIn(rs, rn))
		}
	}
	return lk, rk
}

// mergeKeySlots resolves a sort-merge node's merge-key attribute ids
// (already oriented and permuted by the optimizer, plan.MergeL/MergeR)
// against the input schemas. Attributes dropped below (slot -1) read as
// NULL and match nothing, like in the hash path.
func mergeKeySlots(q *query.Query, p *plan.Plan, ls, rs *algebra.Schema) (lk, rk []int) {
	slotIn := func(s *algebra.Schema, a int) int {
		if i, ok := s.Slot(q.AttrNames[a]); ok {
			return i
		}
		return -1
	}
	for i := range p.MergeL {
		lk = append(lk, slotIn(ls, p.MergeL[i]))
		rk = append(rk, slotIn(rs, p.MergeR[i]))
	}
	return lk, rk
}

// padRow builds the outerjoin default row for a padded side: NULL
// everywhere except weights (1) and partial attributes ({⊥} defaults).
func padRow(c *compiled) algebra.Row {
	s := c.tab.Schema
	pad := algebra.NullRow(s)
	set := func(attr string, v algebra.Value) {
		if slot, ok := s.Slot(attr); ok {
			pad[slot] = v
		}
	}
	for _, w := range c.weights {
		set(w.attr, algebra.Int(1))
	}
	for _, st := range c.aggs {
		for i, attr := range st.partial {
			switch st.defaults[i] {
			case aggfn.DefaultOne:
				set(attr, algebra.Int(1))
			case aggfn.DefaultZero:
				set(attr, algebra.Int(0))
			}
		}
	}
	return pad
}

func (e *executor) compileOp(p *plan.Plan) (*compiled, error) {
	l, err := e.compile(p.Left)
	if err != nil {
		return nil, err
	}
	r, err := e.compile(p.Right)
	if err != nil {
		return nil, err
	}
	lk, rk := joinKeys(e.q, p.Preds, l.tab.Schema, r.tab.Schema)

	out := &compiled{aggs: make([]aggState, len(e.q.Aggregates))}
	dropRight := p.Op.LeftOnly()
	for i := range out.aggs {
		switch {
		case l.aggs[i].partial != nil:
			out.aggs[i] = l.aggs[i]
		case !dropRight && r.aggs[i].partial != nil:
			out.aggs[i] = r.aggs[i]
		}
	}
	out.weights = append(out.weights, l.weights...)
	if !dropRight {
		out.weights = append(out.weights, r.weights...)
	}

	if p.Phys == plan.PhysSortMerge {
		// The sort-based layer: merge joins over the plan's merge-key
		// order, sorting only the inputs the optimizer could not prove
		// ordered. Output sequences equal the hash operators', so the
		// choice of layer never shows in results — only in the sorts
		// performed.
		mlk, mrk := mergeKeySlots(e.q, p, l.tab.Schema, r.tab.Schema)
		switch p.Op {
		case query.KindJoin:
			out.tab, err = e.ex.MergeJoin(l.tab, r.tab, mlk, mrk, p.SortL, p.SortR)
		case query.KindSemiJoin:
			out.tab, err = e.ex.MergeSemiJoin(l.tab, r.tab, mlk, mrk, p.SortL, p.SortR)
		case query.KindAntiJoin:
			out.tab, err = e.ex.MergeAntiJoin(l.tab, r.tab, mlk, mrk, p.SortL, p.SortR)
		case query.KindLeftOuter:
			out.tab, err = e.ex.MergeLeftOuter(l.tab, r.tab, mlk, mrk, p.SortL, p.SortR, padRow(r))
		default:
			err = fmt.Errorf("engine: %v has no sort-based form", p.Op)
		}
		if err != nil {
			return nil, err
		}
		e.record(p, out.tab)
		return out, nil
	}

	switch p.Op {
	case query.KindJoin:
		out.tab = e.ex.BatchHashJoin(l.tab, r.tab, lk, rk)
	case query.KindSemiJoin:
		out.tab = e.ex.BatchHashSemiJoin(l.tab, r.tab, lk, rk)
	case query.KindAntiJoin:
		out.tab = e.ex.BatchHashAntiJoin(l.tab, r.tab, lk, rk)
	case query.KindLeftOuter:
		out.tab = e.ex.BatchHashLeftOuter(l.tab, r.tab, lk, rk, padRow(r))
	case query.KindFullOuter:
		out.tab = e.ex.BatchHashFullOuter(l.tab, r.tab, lk, rk, padRow(l), padRow(r))
	case query.KindGroupJoin:
		if len(r.weights) != 0 {
			return nil, fmt.Errorf("engine: groupjoin over a pre-aggregated right side is not supported")
		}
		// Locate the groupjoin's own vector on the original tree node.
		gj := findGroupJoin(e.q.Root, p.Rels)
		if gj == nil {
			return nil, fmt.Errorf("engine: groupjoin node not found in the query tree")
		}
		out.tab = e.ex.BatchHashGroupJoin(l.tab, r.tab, lk, rk, gj.GroupJoinAggs)
	default:
		return nil, fmt.Errorf("engine: unsupported operator %v", p.Op)
	}
	e.record(p, out.tab)
	return out, nil
}

// findGroupJoin locates the original groupjoin node covering exactly the
// relations the plan node covers (the conflict detector keeps groupjoin
// operands fixed, so the match is unique).
func findGroupJoin(n *query.OpNode, rels bitset.VSet) *query.OpNode {
	if n == nil || n.Kind == query.KindScan {
		return nil
	}
	if n.Kind == query.KindGroupJoin && n.Rels() == rels {
		return n
	}
	if g := findGroupJoin(n.Left, rels); g != nil {
		return g
	}
	return findGroupJoin(n.Right, rels)
}
