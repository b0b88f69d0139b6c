package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"eagg/internal/algebra"
	"eagg/internal/core"
	"eagg/internal/engine"
	"eagg/internal/obs"
	"eagg/internal/plan"
	"eagg/internal/query"
	"eagg/internal/randquery"
	"eagg/internal/service"
)

// serveSizes sizes serve-zipf.
type serveSizes struct {
	shapes     int     // population: four times the engine's 256-entry plan cache
	minN, maxN int     // relations per shape
	maxRows    int     // rows of a shape's largest possible relation
	zipfS      float64 // Zipf exponent s
	zipfV      float64 // Zipf offset v: popularity ∝ (v + rank)^-s
	warmup     int     // requests sent before the measured run
	sessions   int     // sessions the open-loop generator sends through
	rate       float64 // offered requests per second
	limit      time.Duration
}

var defaultServeSizes = serveSizes{
	shapes: 1024, minN: 3, maxN: 8, maxRows: 500, zipfS: 1.1, zipfV: 4,
	warmup: 4096, sessions: 2, rate: 1000, limit: 10 * time.Millisecond,
}

// shape is one query of the population with its data and references.
type shape struct {
	q     *query.Query
	data  engine.TableData
	attrs []string
	want  bag        // canonical result
	ref   *plan.Plan // the one-shot EA-Prune plan the engine must serve
	dcst  float64    // the DPhyp plan's cost
}

// serveBench serves the population through one service engine with
// default options, at a fixed offered rate.
type serveBench struct {
	s      serveSizes
	seed   int64
	shapes []shape
	eng    *service.Engine
	req    service.Request
}

// serveRecord is one request of the open loop. It keeps the response's
// figures, not the response, so that a run holds no result tables.
type serveRecord struct {
	shape int
	// due is when the request was scheduled, sent when it went out and
	// done when its response came back.
	due, sent, done time.Time
	ok              bool // the request succeeded with the reference output
	hit             bool
	optMS, execMS   float64
	optStats        core.Stats       // cache misses only
	exec            engine.ExecStats // without the per-operator profile
	join, group     time.Duration
}

// genShape draws one random query and generates its data. Relation
// sizes follow the generator's cardinalities, mapped log-linearly from
// [MinCard, MaxCard] onto [10, maxRows]. Key columns count up in row
// order, as the generator's declared scan orders require. A join column
// whose partner is a key draws from the partner's key range (a foreign
// key); otherwise both sides draw from the larger relation's row range,
// and row 0 holds 0 on every join column, so every predicate matches.
// Other columns draw from the generator's distinct count, and aggregate
// arguments are NULL one time in ten.
func genShape(rng *rand.Rand, n, maxRows int) (*query.Query, engine.TableData) {
	q := randquery.Generate(rng, randquery.Params{Relations: n})
	p := randquery.Params{}.Defaults()
	rows := make([]int, n)
	for r := range rows {
		f := math.Log(q.Relations[r].Card/p.MinCard) / math.Log(p.MaxCard/p.MinCard)
		rows[r] = int(math.Round(10 * math.Pow(float64(maxRows)/10, math.Max(0, math.Min(1, f)))))
	}
	key := map[int]bool{}
	for r := range q.Relations {
		for _, k := range q.Relations[r].Keys {
			if k.Len() == 1 {
				key[k.Min()] = true
			}
		}
	}
	partner := map[int]int{}
	var walk func(o *query.OpNode)
	walk = func(o *query.OpNode) {
		if o.Kind == query.KindScan {
			return
		}
		for i, la := range o.Pred.Left {
			partner[la], partner[o.Pred.Right[i]] = o.Pred.Right[i], la
		}
		walk(o.Left)
		walk(o.Right)
	}
	walk(q.Root)
	aggArg := map[string]bool{}
	for _, a := range q.Aggregates {
		for _, arg := range a.Args() {
			aggArg[arg] = true
		}
	}

	data := engine.TableData{}
	for r := range q.Relations {
		var attrs []int
		var names []string
		q.Relations[r].Attrs.ForEach(func(a int) {
			attrs = append(attrs, a)
			names = append(names, q.AttrNames[a])
		})
		tab := algebra.NewTable(algebra.NewSchema(names))
		for i := 0; i < rows[r]; i++ {
			row := make(algebra.Row, len(attrs))
			for j, a := range attrs {
				b, joined := partner[a]
				switch {
				case key[a]:
					row[j] = algebra.Int(int64(i))
				case joined && i == 0:
					row[j] = algebra.Int(0)
				case joined && key[b]:
					row[j] = algebra.Int(rng.Int63n(int64(rows[q.AttrRel[b]])))
				case joined:
					row[j] = algebra.Int(rng.Int63n(int64(max(rows[r], rows[q.AttrRel[b]]))))
				case aggArg[q.AttrNames[a]] && rng.Intn(10) == 0:
					row[j] = algebra.Null
				default:
					row[j] = algebra.Int(rng.Int63n(int64(max(1, min(float64(rows[r]), q.Distinct[a])))))
				}
			}
			tab.Rows = append(tab.Rows, row)
		}
		data[r] = tab
	}
	return q, data
}

// genShapes draws the population. The relation counts take turns, so
// every population holds each size equally often.
func genShapes(seed int64, s serveSizes) ([]*query.Query, []engine.TableData) {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]*query.Query, s.shapes)
	dbs := make([]engine.TableData, s.shapes)
	for i := range qs {
		qs[i], dbs[i] = genShape(rng, s.minN+i%(s.maxN-s.minN+1), s.maxRows)
	}
	return qs, dbs
}

// zipfSequence draws n shape indices by Zipf popularity. Which shape has
// which popularity rank is drawn from the seed anew for every window of
// requests, the slices the timings are computed on: popularity drifts,
// and each slice's figures come from a head of popular shapes of its
// own, so the median slice does not hang on a few shapes of one draw.
func zipfSequence(seed int64, n int, s serveSizes) []int {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, s.zipfS, s.zipfV, uint64(s.shapes-1))
	perSlice := max(1, int(s.rate*window.Seconds()))
	var rank []int
	seq := make([]int, n)
	for i := range seq {
		if i%perSlice == 0 {
			rank = rng.Perm(s.shapes)
		}
		seq[i] = rank[z.Uint64()]
	}
	return seq
}

func setupServe(seed int64, s serveSizes, st *setupTimes) (*serveBench, error) {
	t := time.Now()
	qs, dbs := genShapes(seed, s)
	st.datagen = time.Since(t)

	t = time.Now()
	for i, q := range qs {
		if err := fitCatalog(q, dbs[i]); err != nil {
			return nil, fmt.Errorf("shape %d catalog: %w", i, err)
		}
	}
	st.catalog = time.Since(t)

	b := &serveBench{s: s, seed: seed, req: service.Request{
		Opt:  core.Options{Algorithm: core.AlgEAPrune, Workers: 1},
		Exec: engine.ExecOptions{Runtime: engine.RuntimeBatch},
	}}
	t = time.Now()
	for i, q := range qs {
		sh := shape{q: q, data: dbs[i], attrs: engine.OutputAttrs(q)}
		canon, err := engine.CanonicalTablesOpts(q, sh.data, engine.ExecOptions{Workers: 1, Runtime: engine.RuntimeBatch})
		if err != nil {
			return nil, fmt.Errorf("shape %d canonical result: %w", i, err)
		}
		if sh.want, err = digest(canon, sh.attrs); err != nil {
			return nil, fmt.Errorf("shape %d canonical result: %w", i, err)
		}
		eager, err := core.Optimize(q, core.Options{Algorithm: core.AlgEAPrune, Workers: 1})
		if err != nil {
			return nil, fmt.Errorf("shape %d EA-Prune plan: %w", i, err)
		}
		lazy, err := core.Optimize(q, core.Options{Algorithm: core.AlgDPhyp, Workers: 1})
		if err != nil {
			return nil, fmt.Errorf("shape %d DPhyp plan: %w", i, err)
		}
		sh.ref, sh.dcst = eager.Plan, lazy.Plan.Cost
		b.shapes = append(b.shapes, sh)
	}
	st.reference = time.Since(t)

	t = time.Now()
	for _, db := range dbs {
		for _, tab := range db {
			tab.Columnar()
		}
	}
	st.columnarize = time.Since(t)

	// Warm-up: a closed loop over a request sequence of its own fills
	// the plan cache before the measured run.
	t = time.Now()
	b.eng = service.NewEngine(service.EngineOptions{})
	seq := zipfSequence(^seed, s.warmup, s)
	var next atomic.Int64
	errs := make([]error, s.sessions)
	var wg sync.WaitGroup
	for k := 0; k < s.sessions; k++ {
		wg.Add(1)
		go func(sess *service.Session, k int) {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(seq); i = int(next.Add(1)) - 1 {
				sh := &b.shapes[seq[i]]
				resp, err := b.send(sess, sh, nil)
				if err == nil && !sh.check(resp) {
					err = fmt.Errorf("shape %d: the response differs from the reference", seq[i])
				}
				if err != nil {
					errs[k] = fmt.Errorf("warm-up: %w", err)
					return
				}
			}
		}(b.eng.NewSession(), k)
	}
	wg.Wait()
	st.warmup = time.Since(t)
	for _, err := range errs {
		if err != nil {
			b.close()
			return nil, err
		}
	}
	return b, nil
}

func (b *serveBench) close() {
	if b.eng != nil {
		b.eng.Close()
	}
}

func (b *serveBench) send(sess *service.Session, sh *shape, tr *obs.Trace) (*service.Response, error) {
	req := b.req
	req.Exec.Trace = tr
	req.Data = sh.data
	return sess.Execute(sh.q, req)
}

// check reports whether a response carries the one-shot plan and the
// canonical result.
func (sh *shape) check(resp *service.Response) bool {
	if !plan.Equal(resp.Plan, sh.ref) {
		return false
	}
	got, err := digest(resp.Table, sh.attrs)
	return err == nil && got == sh.want
}

// serveDetail is a phase's requests with the engine's counters around it.
type serveDetail struct {
	reqs          []serveRecord
	before, after service.Metrics
	start         time.Time
}

// run offers requests at a fixed rate: request i is due at start +
// i/rate whatever happened before, and goes out through the first free
// session; latencies turns the times it records into latencies.
func (b *serveBench) run(until time.Time, limit int, traced bool) (*phase, error) {
	start := time.Now()
	n := limit
	if n <= 0 {
		n = int(until.Sub(start).Seconds() * b.s.rate)
	}
	seq := zipfSequence(b.seed, n, b.s)
	interval := time.Duration(float64(time.Second) / b.s.rate)
	d := &serveDetail{reqs: make([]serveRecord, n), before: b.eng.Metrics(), start: start}
	recs := make([]*recorder, b.s.sessions)
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := range recs {
		if traced {
			recs[k] = newRecorder(start, k+1)
		}
		wg.Add(1)
		go func(sess *service.Session, rec *recorder) {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				r := &d.reqs[i]
				r.shape = seq[i]
				r.due = start.Add(time.Duration(i) * interval)
				if w := time.Until(r.due); w > 0 {
					time.Sleep(w)
				}
				var tr *obs.Trace
				if traced {
					tr = obs.NewTrace()
				}
				r.sent = time.Now()
				resp, err := b.send(sess, &b.shapes[r.shape], tr)
				r.done = time.Now()
				r.ok = err == nil && b.shapes[r.shape].check(resp)
				if err == nil {
					r.hit, r.optMS, r.execMS, r.exec = resp.CacheHit, resp.OptimizeMillis, resp.ExecMillis, *resp.Stats
					r.exec.Ops = nil
					if !r.hit {
						r.optStats = resp.OptStats
					}
				}
				if traced {
					root := rec.emit(i, -1, "request", "request", r.due.Sub(start), r.done.Sub(r.due))
					rec.emit(i, root, "queued", "loadgen.queue", r.due.Sub(start), r.sent.Sub(r.due))
					sid := rec.emit(i, root, "service.Session.Execute", "service", r.sent.Sub(start), r.done.Sub(r.sent))
					first := len(rec.spans)
					rec.adopt(i, sid, r.sent.Sub(start), tr)
					r.join, r.group = rec.opSelf(first)
				}
			}
		}(b.eng.NewSession(), recs[k])
	}
	wg.Wait()
	d.after = b.eng.Metrics()

	p := &phase{attempted: n, detail: d}
	for i := range d.reqs {
		r := &d.reqs[i]
		p.wall = max(p.wall, r.done.Sub(start))
		p.busy += r.done.Sub(r.sent)
		if !r.ok {
			p.failed++
		}
	}
	p.inside = p.busy
	if traced {
		p.recs = recs
	}
	return p, nil
}

func (b *serveBench) endToEnd(p *phase) map[string]float64 {
	d := p.detail.(*serveDetail)
	lat := d.latencies(b.s.sessions)
	good := 0
	var all, misses [][]float64
	for i, r := range d.reqs {
		if r.ok && lat[i] <= b.s.limit {
			good++
		}
		k := int(r.due.Sub(d.start) / window)
		for len(all) <= k {
			all = append(all, nil)
			misses = append(misses, nil)
		}
		all[k] = append(all[k], ms(lat[i]))
		if !r.hit {
			misses[k] = append(misses[k], ms(lat[i]))
		}
	}
	var p50s, tails []float64
	for k := range all {
		if len(misses[k]) > 0 {
			p50s = append(p50s, median(all[k]))
			tails = append(tails, median(misses[k]))
		}
	}
	ratios := make([]float64, len(b.shapes))
	for i, sh := range b.shapes {
		ratios[i] = sh.ref.Cost / sh.dcst
	}
	return map[string]float64{
		"p50_ms":          median(p50s),
		"tail_ms":         median(tails),
		"goodput_per_s":   float64(good) / p.wall.Seconds(),
		"plan_cost_ratio": geomean(ratios),
	}
}

func (b *serveBench) perLayer(untraced, traced *phase) map[string]float64 {
	d := traced.detail.(*serveDetail)
	var misses []optRecord
	var execs []execRecord
	var hit, miss, exec, queue, late []float64
	lat := d.latencies(b.s.sessions)
	for i, r := range d.reqs {
		if !r.ok {
			continue
		}
		if r.hit {
			hit = append(hit, r.optMS)
		} else {
			miss = append(miss, r.optMS)
			misses = append(misses, optRecord{stats: r.optStats, dur: time.Duration(r.optMS * 1e6)})
		}
		exec = append(exec, r.execMS)
		queue = append(queue, ms(lat[i])-r.optMS-r.execMS)
		late = append(late, ms(r.sent.Sub(r.due)))
		execs = append(execs, execRecord{dur: time.Duration(r.execMS * 1e6), stats: &r.exec, join: r.join, group: r.group})
	}
	m := coreMetrics(misses)
	costlier := 0
	for _, sh := range b.shapes {
		if sh.ref.Cost > sh.dcst*(1+costSlack) {
			costlier++
		}
	}
	m["core.costlier_than_dphyp_frac"] = float64(costlier) / float64(len(b.shapes))
	for k, v := range engineMetrics(execs) {
		m[k] = v
	}
	var qs []*query.Query
	for _, sh := range b.shapes[:min(probes, len(b.shapes))] {
		qs = append(qs, sh.q)
	}
	for k, v := range probeLayers(qs, b.req.Opt) {
		m[k] = v
	}
	var alloc uint64
	for _, sh := range b.shapes[:len(qs)] {
		a := allocated()
		engine.ExecProfiledOpts(sh.q, sh.ref, sh.data, b.req.Exec)
		alloc += allocated() - a
	}
	m["engine.alloc_mb"] = float64(alloc) / (1 << 20) / float64(len(qs))

	before, after := d.before, d.after
	reqs := float64(after.Requests - before.Requests)
	hits := float64(after.PlanCacheHits - before.PlanCacheHits)
	workerTasks := float64(after.Pool.WorkerTasks - before.Pool.WorkerTasks)
	helperTasks := float64(after.Pool.HelperTasks - before.Pool.HelperTasks)
	m["service.cache_hit_rate"] = ratio(hits, hits+float64(after.PlanCacheMiss-before.PlanCacheMiss))
	m["service.evictions_per_req"] = ratio(float64(after.PlanCacheEvictions-before.PlanCacheEvictions), reqs)
	m["service.admission_wait_frac"] = ratio(float64(after.AdmissionWaits-before.AdmissionWaits), reqs)
	m["service.miss_time_frac"] = missTimeFrac(untraced.detail.(*serveDetail))
	m["service.opt_hit_ms"] = mean(hit)
	m["service.opt_miss_ms"] = mean(miss)
	m["service.exec_ms"] = mean(exec)
	m["service.queue_ms"] = mean(queue)
	m["pool.tasks_per_req"] = ratio(workerTasks+helperTasks, reqs)
	m["pool.helper_frac"] = ratio(helperTasks, workerTasks+helperTasks)
	_, m["loadgen.late_ms_p99"] = tail(late, 99)
	return m
}

// latencies returns every request's latency: its service time plus the
// wait that dispatching the requests in order, each at its due time, to
// the first free session would have left it, given the measured service
// times. The wait is computed rather than read off the clock because
// the generator's own delays are not the engine's: Go's sleeps on Linux
// wake at the next whole millisecond, up to one request interval late,
// and a session checks each output before it takes the next request.
func (d *serveDetail) latencies(sessions int) []time.Duration {
	free := make([]time.Time, sessions)
	for k := range free {
		free[k] = d.start
	}
	lat := make([]time.Duration, len(d.reqs))
	for i, r := range d.reqs {
		k := 0
		for j := range free {
			if free[j].Before(free[k]) {
				k = j
			}
		}
		begin := r.due
		if free[k].After(begin) {
			begin = free[k]
		}
		free[k] = begin.Add(r.done.Sub(r.sent))
		lat[i] = free[k].Sub(r.due)
	}
	return lat
}

// missTimeFrac is the share of the correct requests' service time spent
// on plan-cache misses.
func missTimeFrac(d *serveDetail) float64 {
	var miss, all time.Duration
	for _, r := range d.reqs {
		if r.ok {
			all += r.done.Sub(r.sent)
			if !r.hit {
				miss += r.done.Sub(r.sent)
			}
		}
	}
	return ratio(miss.Seconds(), all.Seconds())
}
