package algebra

import (
	"fmt"
	"math/rand"
	"testing"

	"eagg/internal/aggfn"
)

// Adversarial coverage for the flat open-addressing tables: property
// tests against naive map models, engineered hash collisions (keys
// brute-forced onto one home slot), resize-boundary sweeps across every
// grow threshold, bloom-filter semantics, and a grow-under-parallel-
// scatter determinism test (workers 1 vs 8, bit-identical).

func equalPosts(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestIntTableVsMapModel drives an intTable with random inserts from a
// dup-heavy key domain and checks every posting list — content and
// order — against the map the table replaces.
func TestIntTableVsMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(3000)
		domain := 1 + rng.Intn(400) // heavy duplication at small domains
		tab := newIntTable(1 + rng.Intn(8))
		model := map[int64][]int32{}
		for i := 0; i < n; i++ {
			k := int64(rng.Intn(domain)) * 7919 // spread, deterministic
			tab.insert(k, int32(i))
			model[k] = append(model[k], int32(i))
		}
		tab.finalize()
		if tab.n != len(model) {
			t.Fatalf("trial %d: %d distinct keys, want %d", trial, tab.n, len(model))
		}
		if tab.rows != n {
			t.Fatalf("trial %d: %d postings, want %d", trial, tab.rows, n)
		}
		for k, want := range model {
			if got := tab.lookup(k); !equalPosts(got, want) {
				t.Fatalf("trial %d: key %d: got %v want %v", trial, k, got, want)
			}
		}
		for i := 0; i < 50; i++ {
			if k := int64(domain+i) * 7919; tab.lookup(k) != nil {
				t.Fatalf("trial %d: absent key %d resolved postings", trial, k)
			}
		}
		if load := float64(tab.n) / float64(len(tab.slots)); load > 0.75 {
			t.Fatalf("trial %d: load factor %.3f exceeds ¾", trial, load)
		}
	}
}

// TestBytesTableVsMapModel is the byte-key mirror, with shared prefixes,
// the empty key, and scratch-buffer reuse (the table must copy keys).
func TestBytesTableVsMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(2000)
		domain := 1 + rng.Intn(300)
		tab := newBytesTable(1 + rng.Intn(8))
		model := map[string][]int32{}
		scratch := make([]byte, 0, 64) // reused: inserts must copy
		for i := 0; i < n; i++ {
			d := rng.Intn(domain)
			scratch = scratch[:0]
			if d > 0 { // d == 0 is the empty key (legal: empty key list)
				scratch = append(scratch, fmt.Sprintf("prefix/%03d", d)...)
			}
			tab.insert(hashKey(scratch), scratch, int32(i))
			model[string(scratch)] = append(model[string(scratch)], int32(i))
		}
		tab.finalize()
		if tab.n != len(model) {
			t.Fatalf("trial %d: %d distinct keys, want %d", trial, tab.n, len(model))
		}
		for k, want := range model {
			if got := tab.lookup([]byte(k)); !equalPosts(got, want) {
				t.Fatalf("trial %d: key %q: got %v want %v", trial, k, got, want)
			}
		}
		for i := 0; i < 50; i++ {
			key := []byte(fmt.Sprintf("prefix/%03d", domain+i))
			if tab.lookup(key) != nil {
				t.Fatalf("trial %d: absent key %q resolved postings", trial, key)
			}
		}
	}
}

// TestIndexesVsMapModel checks intIndex and bytesIndex against map
// models: first-encounter id assignment, id stability across growth.
func TestIndexesVsMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(2000)
		domain := 1 + rng.Intn(500)
		ii := newIntIndex(1)
		bi := newBytesIndex(1)
		im := map[int64]int32{}
		bm := map[string]int32{}
		for i := 0; i < n; i++ {
			k := int64(rng.Intn(domain))
			wantID, ok := im[k]
			if !ok {
				wantID = int32(len(im))
				im[k] = wantID
			}
			gotID, added := ii.lookupOrAdd(k, int32(len(im))-1)
			if gotID != wantID || added == ok {
				t.Fatalf("trial %d intIndex key %d: got (%d,%v) want (%d,%v)", trial, k, gotID, added, wantID, !ok)
			}

			bk := []byte(fmt.Sprintf("g%04d", k))
			wantID, ok = bm[string(bk)]
			if !ok {
				wantID = int32(len(bm))
				bm[string(bk)] = wantID
			}
			gotID, added = bi.lookupOrAdd(hashKey(bk), bk, int32(len(bm))-1)
			if gotID != wantID || added == ok {
				t.Fatalf("trial %d bytesIndex key %q: got (%d,%v) want (%d,%v)", trial, bk, gotID, added, wantID, !ok)
			}
		}
		if ii.n != len(im) || bi.n != len(bm) {
			t.Fatalf("trial %d: index sizes %d/%d, want %d/%d", trial, ii.n, bi.n, len(im), len(bm))
		}
	}
}

// collidingInts brute-forces n int64 keys whose hashes share home slot 0
// under the given shift — the engineered worst case for linear probing.
func collidingInts(shift uint, n int) []int64 {
	keys := make([]int64, 0, n)
	for k := int64(0); len(keys) < n; k++ {
		if hashInt64(k)>>shift == 0 {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestEngineeredCollisions inserts keys that all hash to the same home
// slot: the probe chain must stay correct, maxProbe must reflect the
// pile-up, and a subsequent grow must redistribute without losing
// postings.
func TestEngineeredCollisions(t *testing.T) {
	tab := newIntTable(48) // capacity 64, growAt 48
	if len(tab.slots) != 64 {
		t.Fatalf("geometry: capacity %d, want 64", len(tab.slots))
	}
	keys := collidingInts(tab.shift, 24)
	for rep := 0; rep < 2; rep++ { // two postings per key
		for i, k := range keys {
			tab.insert(k, int32(rep*len(keys)+i))
		}
	}
	if tab.maxProbe != len(keys) {
		t.Fatalf("maxProbe %d after %d same-slot keys, want %d", tab.maxProbe, len(keys), len(keys))
	}
	// Push past growAt with fresh keys; the colliding keys' postings must
	// survive the redistribution.
	next := int32(2 * len(keys))
	for i := 0; i < 40; i++ {
		tab.insert(int64(1_000_000+i), next)
		next++
	}
	tab.finalize()
	if len(tab.slots) != 128 {
		t.Fatalf("capacity %d after grow, want 128", len(tab.slots))
	}
	for i, k := range keys {
		want := []int32{int32(i), int32(len(keys) + i)}
		if got := tab.lookup(k); !equalPosts(got, want) {
			t.Fatalf("key %d after grow: got %v want %v", k, got, want)
		}
	}

	// The byte-key table under the same attack (keys colliding under
	// hashKey's high bits at its geometry).
	bt := newBytesTable(48)
	var bkeys [][]byte
	for i := 0; len(bkeys) < 16; i++ {
		k := []byte(fmt.Sprintf("c%d", i))
		if hashKey(k)>>bt.shift == 0 {
			bkeys = append(bkeys, k)
		}
	}
	for i, k := range bkeys {
		bt.insert(hashKey(k), k, int32(i))
	}
	if bt.maxProbe != len(bkeys) {
		t.Fatalf("bytes maxProbe %d, want %d", bt.maxProbe, len(bkeys))
	}
	bt.finalize()
	for i, k := range bkeys {
		if got := bt.lookup(k); !equalPosts(got, []int32{int32(i)}) {
			t.Fatalf("bytes key %q: got %v want [%d]", k, got, i)
		}
	}
}

// TestResizeBoundaryKeys sweeps key counts across every grow threshold
// of the first few doublings (growAt is ¾·cap: 6, 12, 24, 48, 96, …),
// starting every structure at minimal capacity so each n crosses its own
// boundary exactly.
func TestResizeBoundaryKeys(t *testing.T) {
	for _, n := range []int{1, 5, 6, 7, 11, 12, 13, 23, 24, 25, 47, 48, 49, 95, 96, 97, 191, 192, 193} {
		tab := newIntTable(1)
		bt := newBytesTable(1)
		ii := newIntIndex(1)
		bi := newBytesIndex(1)
		for i := 0; i < n; i++ {
			k := int64(i) * 2654435761 // spread; distinct
			tab.insert(k, int32(i))
			tab.insert(k, int32(i+n)) // a duplicate posting per key
			bk := []byte(fmt.Sprintf("rk-%05d", i))
			bt.insert(hashKey(bk), bk, int32(i))
			if id, added := ii.lookupOrAdd(k, int32(i)); !added || id != int32(i) {
				t.Fatalf("n=%d: intIndex add %d: (%d,%v)", n, i, id, added)
			}
			if id, added := bi.lookupOrAdd(hashKey(bk), bk, int32(i)); !added || id != int32(i) {
				t.Fatalf("n=%d: bytesIndex add %d: (%d,%v)", n, i, id, added)
			}
		}
		tab.finalize()
		bt.finalize()
		if tab.n != n || bt.n != n || ii.n != n || bi.n != n {
			t.Fatalf("n=%d: sizes %d/%d/%d/%d", n, tab.n, bt.n, ii.n, bi.n)
		}
		for i := 0; i < n; i++ {
			k := int64(i) * 2654435761
			if got := tab.lookup(k); !equalPosts(got, []int32{int32(i), int32(i + n)}) {
				t.Fatalf("n=%d: intTable key %d: %v", n, k, got)
			}
			bk := []byte(fmt.Sprintf("rk-%05d", i))
			if got := bt.lookup(bk); !equalPosts(got, []int32{int32(i)}) {
				t.Fatalf("n=%d: bytesTable key %q: %v", n, bk, got)
			}
			// Ids assigned before any grow must survive every grow after.
			if id, added := ii.lookupOrAdd(k, -2); added || id != int32(i) {
				t.Fatalf("n=%d: intIndex id for %d changed: (%d,%v)", n, k, id, added)
			}
			if id, added := bi.lookupOrAdd(hashKey(bk), bk, -2); added || id != int32(i) {
				t.Fatalf("n=%d: bytesIndex id for %q changed: (%d,%v)", n, bk, id, added)
			}
		}
		if tab.lookup(int64(n)*2654435761) != nil {
			t.Fatalf("n=%d: absent int key resolved", n)
		}
		if bt.lookup([]byte(fmt.Sprintf("rk-%05d", n))) != nil {
			t.Fatalf("n=%d: absent byte key resolved", n)
		}
	}
}

// TestBloomFilterSemantics pins the filter contract: no false negatives
// ever, and a false-positive rate consistent with 8 bits/key.
func TestBloomFilterSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	for _, n := range []int{1, 10, 100, 5000} {
		f := newBloom(n)
		member := make([]uint64, n)
		for i := range member {
			member[i] = rng.Uint64()
			f.add(member[i])
		}
		for _, h := range member {
			if !f.mayContain(h) {
				t.Fatalf("n=%d: false negative for %x", n, h)
			}
		}
		fp := 0
		const probes = 10000
		for i := 0; i < probes; i++ {
			if f.mayContain(rng.Uint64()) {
				fp++
			}
		}
		if rate := float64(fp) / probes; rate > 0.3 {
			t.Fatalf("n=%d: false-positive rate %.3f", n, rate)
		}
	}
}

// bloomJoinTables builds a join shape that clears the bloom gate: a tiny
// build side and a probe side ≥ 8x larger whose keys mostly miss.
func bloomJoinTables(strKeys bool) (l, r *Table) {
	key := func(i int) Value {
		if strKeys {
			return Str(fmt.Sprintf("bk-%04d", i))
		}
		return Int(int64(i))
	}
	r = &Table{Schema: NewSchema([]string{"rk", "rv"})}
	for i := 0; i < 32; i++ {
		r.Rows = append(r.Rows, Row{key(i % 24), Int(int64(i * 10))}) // some dup keys
	}
	l = &Table{Schema: NewSchema([]string{"lk", "lv"})}
	for i := 0; i < 600; i++ {
		l.Rows = append(l.Rows, Row{key(i % 500), Int(int64(i))}) // mostly misses
	}
	return l, r
}

// TestBloomJoinsMatchRow pins bloom safety end to end: with the filter
// demonstrably active (BloomChecks > 0), inner/semi/anti results equal
// the reference operators' — on the int fast path, the encoded
// sequential path and the partitioned parallel path, with the small
// input on either side — and outerjoins consult a filter only when
// they drop unmatched probe rows.
func TestBloomJoinsMatchRow(t *testing.T) {
	for _, strKeys := range []bool{false, true} {
		l, r := bloomJoinTables(strKeys)
		lc, rc := ColTableOf(l), ColTableOf(r)
		lk, rk := []int{0}, []int{0}
		lr, rr := l.Rel(), r.Rel()
		pred := EqAttr("lk", "rk")
		execs := map[string]*Exec{
			"seq": NewExec(1),
			"par": NewExec(8).WithMorselSize(64),
		}
		for name, e := range execs {
			hs := &HashStats{}
			e = e.WithHashStats(hs)
			prefix := fmt.Sprintf("str=%v/%s", strKeys, name)
			sameAsRef(t, prefix+"/join", Join(lr, rr, pred), e.BatchHashJoin(lc, rc, lk, rk))
			sameAsRef(t, prefix+"/semi", SemiJoin(lr, rr, pred), e.BatchHashSemiJoin(lc, rc, lk, rk))
			sameAsRef(t, prefix+"/anti", AntiJoin(lr, rr, pred), e.BatchHashAntiJoin(lc, rc, lk, rk))
			// Swapped: the small input is on the left, so the joins build
			// there and the gate must see the right input's row count.
			swapped := EqAttr("rk", "lk")
			sameAsRef(t, prefix+"/swapped-join", Join(rr, lr, swapped), e.BatchHashJoin(rc, lc, rk, lk))
			sameAsRef(t, prefix+"/swapped-semi", SemiJoin(rr, lr, swapped), e.BatchHashSemiJoin(rc, lc, rk, lk))
			sameAsRef(t, prefix+"/swapped-anti", AntiJoin(rr, lr, swapped), e.BatchHashAntiJoin(rc, lc, rk, lk))
			snap := hs.Snapshot()
			if snap.BloomChecks != 6*int64(lc.Card()) {
				t.Fatalf("%s: bloom consulted %d times, want every probe of the six joins (%d) — the gate regressed",
					prefix, snap.BloomChecks, 6*lc.Card())
			}
			if snap.BloomPasses >= snap.BloomChecks {
				t.Fatalf("%s: bloom filtered nothing (%d/%d)", prefix, snap.BloomPasses, snap.BloomChecks)
			}
			if snap.Builds == 0 {
				t.Fatalf("%s: no table builds recorded", prefix)
			}

			// Outer joins that emit every probe row — the left rows of
			// a left outerjoin built on the right, the right rows of a
			// full outerjoin built on the left — consult no filter.
			hs2 := &HashStats{}
			e2 := e.WithHashStats(hs2)
			pad := NullRow(r.Schema)
			e2.BatchHashLeftOuter(lc, rc, lk, rk, pad)
			e2.BatchHashFullOuter(rc, lc, rk, lk, nil, NullRow(l.Schema))
			if got := hs2.Snapshot().BloomChecks; got != 0 {
				t.Fatalf("%s: an outerjoin emitting every probe row consulted a bloom filter (%d checks)", prefix, got)
			}
			// A left outerjoin built on its small left input drops the
			// unmatched right rows, so it filters them.
			hs3 := &HashStats{}
			sameAsRef(t, prefix+"/swapped-leftouter",
				LeftOuter(rr, lr, swapped, nil), e.WithHashStats(hs3).BatchHashLeftOuter(rc, lc, rk, lk, NullRow(l.Schema)))
			if got := hs3.Snapshot().BloomChecks; got != int64(lc.Card()) {
				t.Fatalf("%s: swapped left outer made %d bloom checks, want %d", prefix, got, lc.Card())
			}
		}
	}
}

// TestGrowUnderParallelScatterDeterminism drives joins and aggregation
// over thousands of distinct string keys — group indexes seed at
// groupIndexSeedCap and must grow repeatedly inside the partition
// fan-out — and asserts workers 1 and 8 produce bit-identical results.
func TestGrowUnderParallelScatterDeterminism(t *testing.T) {
	r := &Table{Schema: NewSchema([]string{"rk", "rv"})}
	for i := 0; i < 3000; i++ {
		r.Rows = append(r.Rows, Row{Str(fmt.Sprintf("key-%04d", i)), Int(int64(i))})
	}
	l := &Table{Schema: NewSchema([]string{"lk", "lv", "lf"})}
	for i := 0; i < 6000; i++ {
		l.Rows = append(l.Rows, Row{
			Str(fmt.Sprintf("key-%04d", (i*7)%4000)), // ~¾ hit, some keys dup'd
			Int(int64(i)),
			Float(float64(i) * 0.125),
		})
	}
	lc, rc := ColTableOf(l), ColTableOf(r)
	w1 := NewExec(1)
	w8 := NewExec(8).WithMorselSize(128)

	identicalRows(t, "join w1≡w8",
		w1.BatchHashJoin(lc, rc, []int{0}, []int{0}).Table(),
		w8.BatchHashJoin(lc, rc, []int{0}, []int{0}).Table())

	f := aggfn.Vector{
		{Out: "c", Kind: aggfn.CountStar},
		{Out: "s", Kind: aggfn.Sum, Arg: "lf"}, // float sum: order-sensitive
	}
	identicalRows(t, "group w1≡w8",
		w1.BatchHashGroup(lc, []string{"lk"}, f).Table(),
		w8.BatchHashGroup(lc, []string{"lk"}, f).Table())
}

// TestHashStatsRecording pins the collector arithmetic and that grouper
// builds report through it (joins are covered by TestBloomJoinsMatchRow).
func TestHashStatsRecording(t *testing.T) {
	hs := &HashStats{}
	hs.recordTable(6, 8, 3, 10)
	hs.recordTable(2, 8, 5, 0)
	hs.recordBloom(100, 25)
	s := hs.Snapshot()
	if s.Builds != 2 || s.Entries != 8 || s.Capacity != 16 || s.MaxProbe != 5 || s.BuildRows != 10 {
		t.Fatalf("snapshot %+v", s)
	}
	if s.LoadFactor() != 0.5 {
		t.Fatalf("load factor %v, want 0.5", s.LoadFactor())
	}
	if s.BloomPassRate() != 0.25 {
		t.Fatalf("bloom pass rate %v, want 0.25", s.BloomPassRate())
	}
	if z := (HashTableStats{}); z.LoadFactor() != 0 || z.BloomPassRate() != 0 {
		t.Fatal("zero stats must not divide by zero")
	}

	tb := aggColumnsTable()
	tc := ColTableOf(tb)
	for name, e := range map[string]*Exec{
		"seq-int":     NewExec(1),
		"par-encoded": NewExec(8).WithMorselSize(16),
	} {
		ghs := &HashStats{}
		NewExec(1).WithHashStats(ghs) // exercise the copy semantics: original untouched
		ex := e.WithHashStats(ghs)
		ex.BatchHashGroup(tc, []string{"g1"}, aggfn.Vector{{Out: "c", Kind: aggfn.CountStar}})
		if snap := ghs.Snapshot(); snap.Builds == 0 || snap.Entries == 0 {
			t.Fatalf("%s: grouper recorded nothing: %+v", name, snap)
		}
	}
}
