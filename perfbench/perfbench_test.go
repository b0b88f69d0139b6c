package main

import (
	"math"
	"reflect"
	"testing"
	"time"

	"eagg/internal/aggfn"
	"eagg/internal/algebra"
	"eagg/internal/core"
	"eagg/internal/engine"
	"eagg/internal/query"
)

// tableDigest digests every column of every table, in relation order.
func tableDigest(t *testing.T, db engine.TableData) []bag {
	t.Helper()
	var out []bag
	for ri := 0; ri < len(db); ri++ {
		d, err := digest(db[ri], db[ri].Schema.Names())
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, d)
	}
	return out
}

func TestSameSeedSameInputs(t *testing.T) {
	small := execSizes{factor: 2}
	for _, seed := range []int64{1, 2} {
		a, b := genExecData(seed, small), genExecData(seed, small)
		for i, eq := range execQueries {
			if !reflect.DeepEqual(tableDigest(t, a[i]), tableDigest(t, b[i])) {
				t.Fatalf("seed %d: %s data differs between two generations", seed, eq.name)
			}
			qa, qb := eq.build(), eq.build()
			if err := fitCatalog(qa, a[i]); err != nil {
				t.Fatal(err)
			}
			if err := fitCatalog(qb, b[i]); err != nil {
				t.Fatal(err)
			}
			if core.Fingerprint(qa, core.Options{}) != core.Fingerprint(qb, core.Options{}) {
				t.Fatalf("seed %d: %s catalog differs between two generations", seed, eq.name)
			}
		}
	}

	s := defaultServeSizes
	s.shapes = 16
	fingerprints := func(seed int64) (fps []string, data [][]bag) {
		qs, dbs := genShapes(seed, s)
		for i, q := range qs {
			if err := fitCatalog(q, dbs[i]); err != nil {
				t.Fatal(err)
			}
			fps = append(fps, core.Fingerprint(q, core.Options{}))
			data = append(data, tableDigest(t, dbs[i]))
		}
		return fps, data
	}
	fa, da := fingerprints(3)
	fb, db := fingerprints(3)
	if !reflect.DeepEqual(fa, fb) || !reflect.DeepEqual(da, db) {
		t.Fatal("seed 3: shape population or data differs between two generations")
	}
	if fc, _ := fingerprints(4); reflect.DeepEqual(fa, fc) {
		t.Fatal("seeds 3 and 4 drew the same shape population")
	}
	if !reflect.DeepEqual(zipfSequence(3, 500, s), zipfSequence(3, 500, s)) {
		t.Fatal("seed 3: Zipf request sequence differs between two draws")
	}
	if reflect.DeepEqual(zipfSequence(3, 500, s), zipfSequence(4, 500, s)) {
		t.Fatal("seeds 3 and 4 drew the same Zipf request sequence")
	}
}

func TestFitCatalogExact(t *testing.T) {
	// R(a, b, c) with key a; S(d, e). The predicate R.b = S.d AND
	// R.c = S.e pairs two attribute pairs between the same relations.
	q := query.New()
	r := q.AddRelation("R", 1000)
	s := q.AddRelation("S", 1000)
	a := q.AddAttr(r, "a", 1000)
	b := q.AddAttr(r, "b", 1000)
	c := q.AddAttr(r, "c", 1000)
	d := q.AddAttr(s, "d", 1000)
	e := q.AddAttr(s, "e", 1000)
	q.AddKey(r, a)
	q.Root = &query.OpNode{
		Kind: query.KindJoin,
		Left: &query.OpNode{Kind: query.KindScan, Rel: r}, Right: &query.OpNode{Kind: query.KindScan, Rel: s},
		Pred: &query.Predicate{Left: []int{b, c}, Right: []int{d, e}, Selectivity: 0.5},
	}
	q.SetGrouping([]int{a}, aggfn.Vector{{Out: "cnt", Kind: aggfn.CountStar}})

	null := algebra.Null
	rt := algebra.NewTable(algebra.NewSchema([]string{"a", "b", "c"}))
	rt.Rows = []algebra.Row{
		{algebra.Int(0), algebra.Int(1), algebra.Int(7)},
		{algebra.Int(1), algebra.Int(1), algebra.Int(7)},
		{algebra.Int(2), null, algebra.Int(8)},
	}
	st := algebra.NewTable(algebra.NewSchema([]string{"d", "e"}))
	st.Rows = []algebra.Row{
		{algebra.Int(1), algebra.Int(7)},
		{algebra.Int(1), algebra.Int(8)},
		{algebra.Int(2), algebra.Int(8)},
		{algebra.Int(3), null},
	}
	data := engine.TableData{r: rt, s: st}
	if err := fitCatalog(q, data); err != nil {
		t.Fatal(err)
	}
	if q.Relations[r].Card != 3 || q.Relations[s].Card != 4 {
		t.Errorf("cardinalities %g, %g; want 3, 4", q.Relations[r].Card, q.Relations[s].Card)
	}
	for attr, want := range map[int]float64{a: 3, b: 1, c: 2, d: 3, e: 2} {
		if q.Distinct[attr] != want {
			t.Errorf("distinct(%s) = %g, want %g", q.AttrNames[attr], q.Distinct[attr], want)
		}
	}
	// b = d: the two rows with b = 1 meet the two with d = 1, 4 of 12
	// pairs. c = e: two c = 7 rows meet one e = 7 row and one c = 8 row
	// meets two e = 8 rows, 4 of 12 pairs.
	if got, want := q.Root.Pred.Selectivity, (4.0/12)*(4.0/12); math.Abs(got-want) > 1e-15 {
		t.Errorf("selectivity %g, want %g", got, want)
	}

	rt.Rows = rt.Rows[:2]
	if err := checkCatalog(q, data); err == nil {
		t.Error("checkCatalog accepted a catalog cardinality that differs from the row count")
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so the helper must sort
		}
		return xs
	}
	if _, ok := percentile(seq(999), 99); ok {
		t.Error("p99 of 999 samples has only 9 beyond it, yet was reported")
	}
	if v, ok := percentile(seq(1000), 99); !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	if _, ok := percentile(seq(19), 50); ok {
		t.Error("p50 of 19 samples has only 9 beyond it, yet was reported")
	}
	if v, ok := percentile(seq(20), 50); !ok || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10, true", v, ok)
	}
	if p, v := tail(seq(200), 99); p != 95 || v != 190 {
		t.Errorf("tail of 200 samples = p%d %v; want p95 190", p, v)
	}
	if p, _ := tail(seq(10), 99); p != 0 {
		t.Errorf("tail of 10 samples = p%d; want none", p)
	}
}

// TestLatenciesQueueForSessions checks the open loop's latencies on a
// hand schedule: a request waits only while every session is busy, and
// when the generator sent it does not count.
func TestLatenciesQueueForSessions(t *testing.T) {
	start := time.Now()
	at := func(us int) time.Time { return start.Add(time.Duration(us) * time.Microsecond) }
	d := &serveDetail{start: start}
	for _, r := range []struct{ due, service int }{
		{0, 5000},    // session 1 until 5 ms
		{1000, 1000}, // session 2 until 2 ms
		{2000, 1000}, // session 2 until 3 ms
		{3000, 500},  // session 2 until 3.5 ms
		{3200, 1000}, // both busy: waits 0.3 ms for session 2
	} {
		sent := at(r.due + 900) // a late wake-up must not count
		d.reqs = append(d.reqs, serveRecord{due: at(r.due), sent: sent, done: sent.Add(time.Duration(r.service) * time.Microsecond)})
	}
	want := []time.Duration{5000, 1000, 1000, 500, 1300}
	for i, got := range d.latencies(2) {
		if got != want[i]*time.Microsecond {
			t.Errorf("request %d: latency %v, want %v", i, got, want[i]*time.Microsecond)
		}
	}
}

func TestDigestComparesBags(t *testing.T) {
	mk := func(names []string, rows ...algebra.Row) *algebra.Table {
		tab := algebra.NewTable(algebra.NewSchema(names))
		tab.Rows = rows
		return tab
	}
	i, f, s := algebra.Int, algebra.Float, algebra.Str
	attrs := []string{"x", "y"}
	base := mk(attrs, algebra.Row{i(1), s("a")}, algebra.Row{i(2), f(0.5)}, algebra.Row{i(2), f(0.5)})
	same := []*algebra.Table{
		mk(attrs, algebra.Row{i(2), f(0.5)}, algebra.Row{i(1), s("a")}, algebra.Row{i(2), f(0.5)}),
		mk([]string{"y", "x"}, algebra.Row{f(0.5), i(2)}, algebra.Row{f(0.5), i(2)}, algebra.Row{s("a"), i(1)}),
	}
	differ := []*algebra.Table{
		mk(attrs, algebra.Row{i(1), s("a")}, algebra.Row{i(2), f(0.5)}),
		mk(attrs, algebra.Row{i(1), s("a")}, algebra.Row{i(1), s("a")}, algebra.Row{i(2), f(0.5)}),
		mk(attrs, algebra.Row{i(1), s("b")}, algebra.Row{i(2), f(0.5)}, algebra.Row{i(2), f(0.5)}),
		mk(attrs, algebra.Row{i(1), s("a")}, algebra.Row{i(2), i(0)}, algebra.Row{i(2), f(0.5)}),
		mk(attrs, algebra.Row{i(1), s("a")}, algebra.Row{i(2), algebra.Null}, algebra.Row{i(2), f(0.5)}),
	}
	want, err := digest(base, attrs)
	if err != nil {
		t.Fatal(err)
	}
	for k, tab := range same {
		if got, _ := digest(tab, attrs); got != want {
			t.Errorf("equal bag %d has a different digest", k)
		}
	}
	for k, tab := range differ {
		if got, _ := digest(tab, attrs); got == want {
			t.Errorf("different bag %d has the same digest", k)
		}
	}
	if _, err := digest(mk([]string{"x"}, algebra.Row{i(1)}), attrs); err == nil {
		t.Error("digest accepted a table without a requested column")
	}
}

// TestServeRun drives a small serve-zipf population through both
// sessions, untraced and traced, so the race detector sees every
// goroutine the open loop starts.
func TestServeRun(t *testing.T) {
	s := defaultServeSizes
	s.shapes, s.warmup, s.maxRows, s.rate = 32, 64, 50, 2000
	var st setupTimes
	b, err := setupServe(7, s, &st)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	for _, traced := range []bool{false, true} {
		p, err := b.run(time.Time{}, 200, traced)
		if err != nil {
			t.Fatal(err)
		}
		if p.attempted != 200 || p.failed != 0 {
			t.Fatalf("traced=%v: %d of %d requests failed", traced, p.failed, p.attempted)
		}
		if traced && len(p.recs) != s.sessions {
			t.Fatalf("traced run kept %d recorders, want one per session", len(p.recs))
		}
	}
}
