package algebra

// Morsel-driven parallel execution (Leis et al., SIGMOD 2014 style) for
// the columnar operators. Inputs are split into fixed-size row ranges
// (morsels) that a small worker pool processes concurrently:
//
//   - Hash-join builds run as parallel partitioned inserts: a
//     morsel-parallel scatter pass buckets every build row by the hash
//     (hashKey) of its typed binary key into a fixed number of partitions,
//     then each partition's flat hash table (hashtable.go) is built
//     independently, sized exactly from the morsel bucket counts.
//     Because the per-morsel buckets are merged in morsel order, every
//     posting list holds its row indices in build-input order — the
//     partitioned table is observationally identical to the sequential
//     build, just split by key hash.
//   - Probes run morsel-parallel over the probe input. Each morsel
//     produces its own output chunk, and the chunks are concatenated in
//     morsel order, so the output is exactly the sequential probe order
//     (probe rows in input order, matches in build-input order).
//   - Hash aggregation scatters input rows by grouping key into the same
//     fixed partitions and aggregates each partition independently.
//     Every group lives in exactly one partition (its key determines its
//     hash), and walking the scatter output in morsel order feeds each
//     group's accumulators in global input order — so even
//     order-sensitive float sums come out bit-identical. The finished
//     groups of all partitions are merged by ascending first-input-row
//     index, which reproduces the sequential first-encounter output
//     order exactly.
//
// The partition count is fixed and independent of the worker count, so
// the work decomposition — and with it every intermediate structure —
// does not depend on how many goroutines happen to execute it. Together
// with the ordered assembly above this makes results bit-identical for
// every worker count; Workers ≤ 1 short-circuits to the plain sequential
// operators and is the exact reference path.

import (
	"encoding/binary"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultMorselSize caps the adaptive morsel sizing: rows per morsel
// never exceed it, so skewed operators on large inputs still
// load-balance.
const DefaultMorselSize = 4096

// minMorselSize floors the adaptive sizing: below this, per-morsel
// bookkeeping stops vanishing against per-row work.
const minMorselSize = 64

// morselsPerWorker is the adaptive sizing target: enough morsels per
// worker that the atomic hand-out evens out per-morsel skew.
const morselsPerWorker = 4

// partitions is the fixed fan-out of partitioned builds and
// aggregations. Must be a power of two (the partition of a key is its
// hash masked by partitions-1).
const partitions = 64

// Exec carries execution-wide settings for the columnar operators: the
// worker count of the morsel-driven parallel variants and the morsel
// granularity. A nil *Exec runs every operator sequentially.
type Exec struct {
	workers int
	// morsel is the explicit morsel size; 0 selects adaptive sizing
	// (see sizeFor). Never read directly — operators size through
	// sizeFor so that morsel counts and morsel iteration agree.
	morsel int
	// pool, when set, supplies the goroutines for every task fan-out
	// instead of spawning fresh ones — the shared-scheduler seam of the
	// service layer. The work decomposition (morsel geometry, partition
	// count) still derives only from workers, so results are identical
	// with or without a pool.
	pool *Pool
	// batch is the row count per columnar batch of the batch-at-a-time
	// operators (batchjoin.go, batchagg.go); 0 selects DefaultBatchSize.
	// Results are identical for every size.
	batch int
	// hstats, when set, collects hash-table build/probe telemetry
	// (hashtable.go). Observation only — never consulted for decisions,
	// so attaching it cannot change results.
	hstats *HashStats
}

// DefaultBatchSize is the default row count per columnar batch: large
// enough to amortize the per-batch column-kind dispatch, small enough
// that a batch's working set (keys + payloads) stays cache-resident.
const DefaultBatchSize = 1024

// WithBatchSize returns a copy of e with an explicit columnar batch size
// (≤ 0 restores the default). Results are bit-identical for every size.
func (e *Exec) WithBatchSize(rows int) *Exec {
	out := *e
	if rows < 0 {
		rows = 0
	}
	out.batch = rows
	return &out
}

// batchSize returns the resolved columnar batch size.
func (e *Exec) batchSize() int {
	if e == nil || e.batch <= 0 {
		return DefaultBatchSize
	}
	return e.batch
}

// NewExec returns execution settings for the given worker count:
// 0 (or negative) selects GOMAXPROCS, 1 is the exact sequential
// reference path, larger counts enable the morsel-parallel operator
// variants. Results are bit-identical for every value.
func NewExec(workers int) *Exec {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Exec{workers: workers}
}

// Workers returns the resolved worker count (1 for a nil Exec).
func (e *Exec) Workers() int {
	if e == nil {
		return 1
	}
	return e.workers
}

// WithMorselSize returns a copy of e with an exact morsel size
// (0 restores the adaptive default). An explicit size also disables the
// small-operator sequential cutoff (see parFor) — the tests rely on
// that to force the parallel machinery onto tiny inputs. Results are
// identical for every size.
func (e *Exec) WithMorselSize(rows int) *Exec {
	out := *e
	if rows < 0 {
		rows = 0
	}
	out.morsel = rows
	return &out
}

// WithPool returns a copy of e whose task fan-outs run on the shared
// pool (nil restores plain goroutine spawning). Attaching a pool never
// changes results — only which goroutines execute the tasks.
func (e *Exec) WithPool(p *Pool) *Exec {
	out := *e
	out.pool = p
	return &out
}

// WithHashStats returns a copy of e that records hash-table telemetry
// into hs (nil detaches). Pure observation: results are identical with
// or without a collector.
func (e *Exec) WithHashStats(hs *HashStats) *Exec {
	out := *e
	out.hstats = hs
	return &out
}

// hashStats returns the attached collector (nil for none, including on
// a nil Exec — every record path is nil-safe).
func (e *Exec) hashStats() *HashStats {
	if e == nil {
		return nil
	}
	return e.hstats
}

// par reports whether the parallel operator variants are selected.
func (e *Exec) par() bool { return e != nil && e.workers > 1 }

// parallelCutoff is the smallest driving input (rows) for which the
// parallel variants pay for their scatter/partition overhead under the
// adaptive morsel sizing. Operators below it run sequentially — a
// deterministic, size-only decision.
const parallelCutoff = 512

// parFor reports whether the parallel variant should run for an
// operator driven by n input rows. An explicit morsel size disables the
// cutoff so tests can force the parallel machinery onto tiny inputs.
func (e *Exec) parFor(n int) bool {
	return e.par() && (e.morsel > 0 || n >= parallelCutoff)
}

// sizeFor returns the morsel size for an n-row input: the explicitly
// configured size, or — by default — a size aiming at morselsPerWorker
// morsels per worker, clamped to [minMorselSize, DefaultMorselSize], so
// small inputs still fan out while per-morsel bookkeeping stays
// negligible on large ones. The size depends only on (n, workers,
// configuration), never on scheduling — morsel boundaries are
// deterministic.
func (e *Exec) sizeFor(n int) int {
	if e.morsel > 0 {
		return e.morsel
	}
	target := e.workers * morselsPerWorker
	size := (n + target - 1) / target
	if size > DefaultMorselSize {
		return DefaultMorselSize
	}
	if size < minMorselSize {
		return minMorselSize
	}
	return size
}

// morselCount returns the number of morsels n rows split into.
func (e *Exec) morselCount(n int) int {
	size := e.sizeFor(n)
	return (n + size - 1) / size
}

// forMorsels executes fn(m, lo, hi) for every morsel of n input rows,
// fanning out over the task scheduler (up to e.workers goroutines, or
// the attached pool's workers). Morsel boundaries are computed here —
// a pure function of (n, workers, configuration) — and only then handed
// to forTasks, so the decomposition never depends on who executes it.
// fn must only write state owned by morsel m; the fan-out barrier gives
// the caller a happens-before edge on everything fn wrote.
func (e *Exec) forMorsels(n int, fn func(m, lo, hi int)) {
	size := e.sizeFor(n)
	morsels := e.morselCount(n)
	e.forTasks(morsels, func(m int) {
		fn(m, m*size, min((m+1)*size, n))
	})
}

// forTasks executes fn(i) for i in [0, n) — the single fan-out point
// every parallel operator funnels through (forMorsels and forParts
// included). Tasks are handed out through an atomic counter so workers
// stay busy under per-task skew; with a pool attached, the pool's
// shared workers (plus the submitter) execute the tasks instead of
// freshly spawned goroutines. The call returns only after all n tasks
// finished, with a happens-before edge on everything they wrote.
func (e *Exec) forTasks(n int, fn func(i int)) {
	w := e.workers
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	if e.pool != nil {
		e.pool.Run(n, fn)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for i := 0; i < w; i++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// seqFor returns e itself when the parallel variants should run for an
// n-row operator, and a single-worker copy otherwise — the sort-based
// operators' counterpart of the hash operators' sequential fallback
// below parallelCutoff. Results are identical either way.
func (e *Exec) seqFor(n int) *Exec {
	if e.parFor(n) {
		return e
	}
	s := *e
	s.workers = 1
	return &s
}

// forParts executes fn(p) for every partition id over the task
// scheduler.
func (e *Exec) forParts(fn func(p int)) {
	e.forTasks(partitions, fn)
}

// hashKey is the deterministic hash over an encoded key, shared by the
// partition scatter (low bits) and the flat tables' slot choice (high
// bits). Hash values never affect results — partitioning only splits
// work, and the grouper merge orders by first input row — but a fixed
// hash keeps run-to-run behavior reproducible. The body is a word-at-a-
// time multiply-xor over 8-byte lanes with a splitmix-style finalizer:
// byte-at-a-time FNV-1a measured ~2x slower than Go's map hash on the
// probe-heavy join paths, and encoded keys are usually 9-20 bytes.
func hashKey(b []byte) uint64 {
	const m = 0xe7037ed1a0b428db
	h := uint64(14695981039346656037) ^ uint64(len(b))*0xa0761d6478bd642f
	for len(b) >= 8 {
		h = (h ^ binary.LittleEndian.Uint64(b)) * m
		h ^= h >> 29
		b = b[8:]
	}
	if len(b) > 0 {
		var tail uint64
		for i, c := range b {
			tail |= uint64(c) << (8 * uint(i))
		}
		h = (h ^ tail) * m
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// scatterEntry locates one row and its encoded key in the morsel arena,
// with the key's hash cached — the partition pass computed it anyway,
// and the flat per-partition tables reuse it for their slot choice.
type scatterEntry struct {
	row      int32
	off, len int32
	hash     uint64
}

// morselScatter is one morsel's contribution to a partitioned pass: per
// partition, the rows hashing into it in row order, with their encoded
// keys in a shared arena.
type morselScatter struct {
	arena   []byte
	buckets [partitions][]scatterEntry
}

// add copies one row's encoded key into the arena and buckets the row
// by the key's hash.
func (s *morselScatter) add(row int32, key []byte) {
	off := len(s.arena)
	s.arena = append(s.arena, key...)
	h := hashKey(s.arena[off:])
	p := h & (partitions - 1)
	s.buckets[p] = append(s.buckets[p], scatterEntry{row: row, off: int32(off), len: int32(len(key)), hash: h})
}

// partTable is a partitioned hash table over a build input: partition p
// holds the keys hashing to p (low hash bits) in a flat open-addressing
// table, posting lists in build-input order — the sequential build's
// postings split by key hash. A nil partition holds no keys.
type partTable struct {
	parts [partitions]*bytesTable
}

// lookupHashed returns the posting list of an encoded key under its
// precomputed hash.
func (pt *partTable) lookupHashed(h uint64, key []byte) []int32 {
	t := pt.parts[h&(partitions-1)]
	if t == nil {
		return nil
	}
	return t.lookupHashed(h, key)
}

// buildParts assembles the flat per-partition tables from finished
// morsel scatters: every partition's table is sized exactly from the
// summed morsel bucket counts (a pure function of the data — the morsel
// geometry never depends on scheduling — so table capacities, and with
// them every probe sequence, are identical for every worker count), and
// morsel contributions are inserted in morsel order to keep build-input
// order within every posting list.
func (e *Exec) buildParts(scatters []*morselScatter) *partTable {
	pt := &partTable{}
	hs := e.hashStats()
	e.forParts(func(p int) {
		total := 0
		for _, sc := range scatters {
			total += len(sc.buckets[p])
		}
		if total == 0 {
			return
		}
		t := newBytesTable(total)
		for _, sc := range scatters {
			for _, en := range sc.buckets[p] {
				t.insert(en.hash, sc.arena[en.off:en.off+en.len], en.row)
			}
		}
		t.finalize()
		t.record(hs)
		pt.parts[p] = t
	})
	return pt
}

// groupOut is one finished group: its output row plus the first-row tag
// that orders the deterministic merge.
type groupOut struct {
	first int32
	row   Row
}
