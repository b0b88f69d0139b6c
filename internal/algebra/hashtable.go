package algebra

// Flat open-addressing hash tables for the batch runtime's hot paths.
// Go's generic map pays a hash of an already-hashed key, pointer-chasing
// buckets and a per-insert allocation on exactly the traffic the paper's
// C_out metric counts; these tables are the cache-conscious replacement
// in the X100 tradition (Boncz et al., CIDR'05): one flat slot array,
// linear probing, power-of-two capacity, cached 64-bit hashes, and
// posting lists stored inline — the first matching row lives in the slot
// itself, overflow rows go to a slab-backed chain that a finalize pass
// flattens into one contiguous postings slab, so a lookup returns a
// zero-allocation subslice.
//
// Two posting-table specializations cover the runtime's key shapes:
//
//   - intTable hashes raw int64 payloads (the single-ColInt fast path of
//     buildHash) through a splitmix64-style mixer.
//   - bytesTable hashes the canonical typed binary key encodings
//     (batchkey.go) under the same word-at-a-time hash (hashKey) the partition
//     scatter uses, so one hash per key serves both the partition choice
//     (low bits) and the slot choice (high bits). Keys are copied into a
//     table-owned arena on first insert — callers hand in pooled scratch
//     buffers that are overwritten batch to batch.
//
// Slots are derived from the HIGH bits of the hash (h >> shift). The
// radix partitioner has already consumed the LOW log2(partitions) bits
// when a table holds one partition's keys; taking high bits keeps the
// slot distribution independent of the partition choice.
//
// Posting lists preserve build-input order by construction: the slot
// holds the first row, overflow rows are appended to the chain tail, and
// finalize walks first-then-chain. That is the whole PR 3 determinism
// argument — per-partition inserts in morsel order produce the exact
// posting sequences of the sequential build, so workers 1 ≡ N stays
// bit-identical without any sorting.
//
// intIndex / bytesIndex are the companion key→group-id maps of batch
// aggregation: same probing scheme, but the payload is a caller-assigned
// dense id, preserving first-encounter group order.

import (
	"bytes"
	"math/bits"
	"sync/atomic"
)

// hashInt64 mixes an int64 join key into a 64-bit hash (the splitmix64
// finalizer). The raw payload is not usable directly: sequential keys
// would collide per stride in the high slot bits.
func hashInt64(x int64) uint64 {
	z := uint64(x)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// minTableCap is the smallest slot-array size. Power of two, like every
// capacity here.
const minTableCap = 8

// tableGeometry sizes a slot array for hint distinct keys at no more
// than ¾ load: the smallest power-of-two capacity c with hint ≤ ¾·c,
// its probe mask, and the right-shift that turns a 64-bit hash into a
// home slot from its high bits.
func tableGeometry(hint int) (capacity int, mask uint64, shift uint) {
	c := minTableCap
	for c-c/4 < hint {
		c <<= 1
	}
	return c, uint64(c - 1), uint(64 - bits.Len(uint(c-1)))
}

// intSlot is one open-addressing slot of an intTable. first < 0 marks an
// empty slot. While building, head/tail are the overflow chain's ends
// (indices into ovRow/ovNext, -1 for none); after finalize they are the
// slot's (offset, length) into the flat postings slab.
type intSlot struct {
	key   int64
	first int32
	head  int32
	tail  int32
}

// intTable maps int64 keys to posting lists of int32 rows in insertion
// order. Build with insert, seal with finalize, then read with lookup.
type intTable struct {
	slots []intSlot
	mask  uint64
	shift uint

	n        int // distinct keys
	growAt   int // grow before exceeding ¾ load
	rows     int // total postings inserted
	maxProbe int // longest probe sequence any insert walked

	ovRow  []int32 // overflow postings (rows beyond each key's first)
	ovNext []int32 // chain links through ovRow; -1 ends a chain
	posts  []int32 // finalized postings slab
}

func newIntTable(hint int) *intTable {
	t := &intTable{}
	c, mask, shift := tableGeometry(hint)
	t.slots, t.mask, t.shift = newIntSlots(c), mask, shift
	t.growAt = c - c/4
	return t
}

func newIntSlots(c int) []intSlot {
	s := make([]intSlot, c)
	for i := range s {
		s[i].first = -1
	}
	return s
}

// insert appends row to key's posting list, claiming a slot on first
// encounter. Postings keep insertion order: first row inline, the rest
// tail-appended to the overflow chain.
func (t *intTable) insert(key int64, row int32) {
	t.rows++
	h := hashInt64(key)
	for {
		i := h >> t.shift
		d := 1
		for {
			s := &t.slots[i]
			if s.first < 0 {
				if t.n >= t.growAt {
					t.grow()
					break // re-probe in the grown table
				}
				t.n++
				if d > t.maxProbe {
					t.maxProbe = d
				}
				*s = intSlot{key: key, first: row, head: -1, tail: -1}
				return
			}
			if s.key == key {
				t.appendOverflow(s, row)
				return
			}
			i = (i + 1) & t.mask
			d++
		}
	}
}

func (t *intTable) appendOverflow(s *intSlot, row int32) {
	e := int32(len(t.ovRow))
	t.ovRow = append(t.ovRow, row)
	t.ovNext = append(t.ovNext, -1)
	if s.tail >= 0 {
		t.ovNext[s.tail] = e
	} else {
		s.head = e
	}
	s.tail = e
}

// grow doubles the slot array and re-places every occupied slot by its
// key's hash. Overflow chains index into slabs, never into slots, so
// growing moves no postings.
func (t *intTable) grow() {
	old := t.slots
	c := 2 * len(old)
	t.slots = newIntSlots(c)
	t.mask = uint64(c - 1)
	t.shift--
	t.growAt = c - c/4
	t.maxProbe = 0
	for oi := range old {
		s := &old[oi]
		if s.first < 0 {
			continue
		}
		i := hashInt64(s.key) >> t.shift
		d := 1
		for t.slots[i].first >= 0 {
			i = (i + 1) & t.mask
			d++
		}
		if d > t.maxProbe {
			t.maxProbe = d
		}
		t.slots[i] = *s
	}
}

// finalize flattens every key's inline-first-plus-chain postings into
// one contiguous slab (insertion order preserved) and repurposes
// head/tail as its (offset, length). Must be called exactly once, after
// the last insert and before the first lookup.
func (t *intTable) finalize() {
	t.posts = make([]int32, 0, t.rows)
	for i := range t.slots {
		s := &t.slots[i]
		if s.first < 0 {
			continue
		}
		off := int32(len(t.posts))
		t.posts = append(t.posts, s.first)
		for e := s.head; e >= 0; e = t.ovNext[e] {
			t.posts = append(t.posts, t.ovRow[e])
		}
		s.head = off
		s.tail = int32(len(t.posts)) - off
	}
	t.ovRow, t.ovNext = nil, nil
}

// lookup returns key's postings in insertion order, nil if absent.
func (t *intTable) lookup(key int64) []int32 {
	return t.lookupHashed(hashInt64(key), key)
}

func (t *intTable) lookupHashed(h uint64, key int64) []int32 {
	i := h >> t.shift
	for {
		s := &t.slots[i]
		if s.first < 0 {
			return nil
		}
		if s.key == key {
			return t.posts[s.head : s.head+s.tail]
		}
		i = (i + 1) & t.mask
	}
}

// fillBloom adds every distinct key's hash to the filter.
func (t *intTable) fillBloom(f *bloomFilter) {
	for i := range t.slots {
		if t.slots[i].first >= 0 {
			f.add(hashInt64(t.slots[i].key))
		}
	}
}

func (t *intTable) record(hs *HashStats) {
	if hs != nil {
		hs.recordTable(t.n, len(t.slots), t.maxProbe, t.rows)
	}
}

// bytesSlot is one open-addressing slot of a bytesTable: the cached key
// hash, the key's (offset, length) in the table's arena, and the same
// first/head/tail posting layout as intSlot. first < 0 marks empty (the
// empty key is legal — klen 0 — so occupancy needs its own marker).
type bytesSlot struct {
	hash       uint64
	koff, klen int32
	first      int32
	head       int32
	tail       int32
}

// bytesTable maps encoded byte keys to posting lists of int32 rows in
// insertion order. Keys are copied into the table-owned arena on first
// insert (callers reuse their encoding buffers); equality is cached-hash
// first, bytes second. Resizing re-places slots by the cached hash and
// never touches key bytes.
type bytesTable struct {
	slots []bytesSlot
	mask  uint64
	shift uint

	n        int
	growAt   int
	rows     int
	maxProbe int

	arena  []byte
	ovRow  []int32
	ovNext []int32
	posts  []int32
}

func newBytesTable(hint int) *bytesTable {
	t := &bytesTable{}
	c, mask, shift := tableGeometry(hint)
	t.slots, t.mask, t.shift = newBytesSlots(c), mask, shift
	t.growAt = c - c/4
	return t
}

func newBytesSlots(c int) []bytesSlot {
	s := make([]bytesSlot, c)
	for i := range s {
		s[i].first = -1
	}
	return s
}

func (t *bytesTable) key(s *bytesSlot) []byte {
	return t.arena[s.koff : s.koff+s.klen]
}

// insert appends row to key's posting list under its precomputed hash
// (hashKey(key) — the same hash that picked this table's partition, when
// partitioned). key may point into caller scratch; it is copied on first
// encounter.
func (t *bytesTable) insert(h uint64, key []byte, row int32) {
	t.rows++
	for {
		i := h >> t.shift
		d := 1
		for {
			s := &t.slots[i]
			if s.first < 0 {
				if t.n >= t.growAt {
					t.grow()
					break // re-probe in the grown table
				}
				t.n++
				if d > t.maxProbe {
					t.maxProbe = d
				}
				koff := int32(len(t.arena))
				t.arena = append(t.arena, key...)
				*s = bytesSlot{hash: h, koff: koff, klen: int32(len(key)), first: row, head: -1, tail: -1}
				return
			}
			if s.hash == h && bytes.Equal(t.key(s), key) {
				t.appendOverflow(s, row)
				return
			}
			i = (i + 1) & t.mask
			d++
		}
	}
}

func (t *bytesTable) appendOverflow(s *bytesSlot, row int32) {
	e := int32(len(t.ovRow))
	t.ovRow = append(t.ovRow, row)
	t.ovNext = append(t.ovNext, -1)
	if s.tail >= 0 {
		t.ovNext[s.tail] = e
	} else {
		s.head = e
	}
	s.tail = e
}

func (t *bytesTable) grow() {
	old := t.slots
	c := 2 * len(old)
	t.slots = newBytesSlots(c)
	t.mask = uint64(c - 1)
	t.shift--
	t.growAt = c - c/4
	t.maxProbe = 0
	for oi := range old {
		s := &old[oi]
		if s.first < 0 {
			continue
		}
		i := s.hash >> t.shift
		d := 1
		for t.slots[i].first >= 0 {
			i = (i + 1) & t.mask
			d++
		}
		if d > t.maxProbe {
			t.maxProbe = d
		}
		t.slots[i] = *s
	}
}

// finalize flattens postings exactly like intTable.finalize.
func (t *bytesTable) finalize() {
	t.posts = make([]int32, 0, t.rows)
	for i := range t.slots {
		s := &t.slots[i]
		if s.first < 0 {
			continue
		}
		off := int32(len(t.posts))
		t.posts = append(t.posts, s.first)
		for e := s.head; e >= 0; e = t.ovNext[e] {
			t.posts = append(t.posts, t.ovRow[e])
		}
		s.head = off
		s.tail = int32(len(t.posts)) - off
	}
	t.ovRow, t.ovNext = nil, nil
}

// lookup returns key's postings in insertion order, nil if absent.
func (t *bytesTable) lookup(key []byte) []int32 {
	return t.lookupHashed(hashKey(key), key)
}

func (t *bytesTable) lookupHashed(h uint64, key []byte) []int32 {
	i := h >> t.shift
	for {
		s := &t.slots[i]
		if s.first < 0 {
			return nil
		}
		if s.hash == h && bytes.Equal(t.key(s), key) {
			return t.posts[s.head : s.head+s.tail]
		}
		i = (i + 1) & t.mask
	}
}

func (t *bytesTable) fillBloom(f *bloomFilter) {
	for i := range t.slots {
		if t.slots[i].first >= 0 {
			f.add(t.slots[i].hash)
		}
	}
}

func (t *bytesTable) record(hs *HashStats) {
	if hs != nil {
		hs.recordTable(t.n, len(t.slots), t.maxProbe, t.rows)
	}
}

// groupIndexSeedCap seeds the group indexes small: group counts are
// unknown up front (often tiny against the row count), and growth is
// deterministic anyway.
const groupIndexSeedCap = 64

// intIndex maps int64 keys to caller-assigned dense int32 ids — the
// group index of the single-ColInt aggregation fast path.
type intIndex struct {
	keys     []int64
	ids      []int32 // < 0 marks an empty slot
	mask     uint64
	shift    uint
	n        int
	growAt   int
	maxProbe int
}

func newIntIndex(hint int) *intIndex {
	x := &intIndex{}
	c, mask, shift := tableGeometry(hint)
	x.keys, x.ids, x.mask, x.shift = make([]int64, c), newIds(c), mask, shift
	x.growAt = c - c/4
	return x
}

func newIds(c int) []int32 {
	ids := make([]int32, c)
	for i := range ids {
		ids[i] = -1
	}
	return ids
}

// lookupOrAdd returns key's id, inserting it as id on first encounter
// (added reports which). Assigned ids are stable across growth.
func (x *intIndex) lookupOrAdd(key int64, id int32) (got int32, added bool) {
	h := hashInt64(key)
	for {
		i := h >> x.shift
		d := 1
		for {
			if x.ids[i] < 0 {
				if x.n >= x.growAt {
					x.grow()
					break // re-probe in the grown index
				}
				x.n++
				if d > x.maxProbe {
					x.maxProbe = d
				}
				x.keys[i], x.ids[i] = key, id
				return id, true
			}
			if x.keys[i] == key {
				return x.ids[i], false
			}
			i = (i + 1) & x.mask
			d++
		}
	}
}

func (x *intIndex) grow() {
	oldKeys, oldIds := x.keys, x.ids
	c := 2 * len(oldKeys)
	x.keys, x.ids = make([]int64, c), newIds(c)
	x.mask = uint64(c - 1)
	x.shift--
	x.growAt = c - c/4
	x.maxProbe = 0
	for oi, id := range oldIds {
		if id < 0 {
			continue
		}
		i := hashInt64(oldKeys[oi]) >> x.shift
		d := 1
		for x.ids[i] >= 0 {
			i = (i + 1) & x.mask
			d++
		}
		if d > x.maxProbe {
			x.maxProbe = d
		}
		x.keys[i], x.ids[i] = oldKeys[oi], id
	}
}

func (x *intIndex) record(hs *HashStats) {
	if hs != nil {
		hs.recordTable(x.n, len(x.ids), x.maxProbe, 0)
	}
}

// bytesIndexSlot is one slot of a bytesIndex; id < 0 marks empty.
type bytesIndexSlot struct {
	hash       uint64
	koff, klen int32
	id         int32
}

// bytesIndex maps encoded byte keys to caller-assigned dense int32 ids —
// the group index of batch aggregation's encoded-key path. Keys are
// copied into the index-owned arena on first encounter.
type bytesIndex struct {
	slots    []bytesIndexSlot
	mask     uint64
	shift    uint
	n        int
	growAt   int
	maxProbe int
	arena    []byte
}

func newBytesIndex(hint int) *bytesIndex {
	x := &bytesIndex{}
	c, mask, shift := tableGeometry(hint)
	x.slots, x.mask, x.shift = newBytesIndexSlots(c), mask, shift
	x.growAt = c - c/4
	return x
}

func newBytesIndexSlots(c int) []bytesIndexSlot {
	s := make([]bytesIndexSlot, c)
	for i := range s {
		s[i].id = -1
	}
	return s
}

// lookupOrAdd returns key's id under its precomputed hash, inserting it
// as id on first encounter. key may point into caller scratch; it is
// copied when inserted.
func (x *bytesIndex) lookupOrAdd(h uint64, key []byte, id int32) (got int32, added bool) {
	for {
		i := h >> x.shift
		d := 1
		for {
			s := &x.slots[i]
			if s.id < 0 {
				if x.n >= x.growAt {
					x.grow()
					break // re-probe in the grown index
				}
				x.n++
				if d > x.maxProbe {
					x.maxProbe = d
				}
				koff := int32(len(x.arena))
				x.arena = append(x.arena, key...)
				*s = bytesIndexSlot{hash: h, koff: koff, klen: int32(len(key)), id: id}
				return id, true
			}
			if s.hash == h && bytes.Equal(x.arena[s.koff:s.koff+s.klen], key) {
				return s.id, false
			}
			i = (i + 1) & x.mask
			d++
		}
	}
}

func (x *bytesIndex) grow() {
	old := x.slots
	c := 2 * len(old)
	x.slots = newBytesIndexSlots(c)
	x.mask = uint64(c - 1)
	x.shift--
	x.growAt = c - c/4
	x.maxProbe = 0
	for oi := range old {
		s := &old[oi]
		if s.id < 0 {
			continue
		}
		i := s.hash >> x.shift
		d := 1
		for x.slots[i].id >= 0 {
			i = (i + 1) & x.mask
			d++
		}
		if d > x.maxProbe {
			x.maxProbe = d
		}
		x.slots[i] = *s
	}
}

func (x *bytesIndex) record(hs *HashStats) {
	if hs != nil {
		hs.recordTable(x.n, len(x.slots), x.maxProbe, 0)
	}
}

// bloomBitsPerKey sizes the build-side Bloom filter; with the two probes
// below, 8 bits/key lands around a 5% false-positive rate.
const bloomBitsPerKey = 8

// bloomMinBits floors the filter size (power of two, ≥ one word).
const bloomMinBits = 256

// bloomProbeBuildRatio gates the filter: it pays only when many probe
// keys miss, which a probing input with many rows per distinct build key
// signals.
const bloomProbeBuildRatio = 8

// bloomFilter is a split two-probe Bloom filter over cached 64-bit key
// hashes. Both probes derive from the one hash the table already
// computed — no extra hashing on either side.
type bloomFilter struct {
	words []uint64
	mask  uint64
}

func newBloom(keys int) *bloomFilter {
	n := bloomMinBits
	for n < keys*bloomBitsPerKey {
		n <<= 1
	}
	return &bloomFilter{words: make([]uint64, n/64), mask: uint64(n - 1)}
}

func (f *bloomFilter) bitPositions(h uint64) (uint64, uint64) {
	return h & f.mask, bits.RotateLeft64(h, 21) & f.mask
}

func (f *bloomFilter) add(h uint64) {
	b1, b2 := f.bitPositions(h)
	f.words[b1>>6] |= 1 << (b1 & 63)
	f.words[b2>>6] |= 1 << (b2 & 63)
}

// mayContain is exact on negatives (an added hash always passes) and
// approximate on positives — a false positive only costs the table probe
// the caller was about to do anyway, so filter answers never change join
// results.
func (f *bloomFilter) mayContain(h uint64) bool {
	b1, b2 := f.bitPositions(h)
	return f.words[b1>>6]&(1<<(b1&63)) != 0 && f.words[b2>>6]&(1<<(b2&63)) != 0
}

// buildBloom decides the optional build-side filter for a join: non-nil
// when the probing input's row count per distinct build key clears
// bloomProbeBuildRatio (probeCard < 0 disables — outer joins emit every
// probe row anyway, so a filter saves nothing there).
func buildBloom(buildCard, probeCard int) *bloomFilter {
	if probeCard >= 0 && probeCard >= bloomProbeBuildRatio*max(buildCard, 1) {
		return newBloom(buildCard)
	}
	return nil
}

// HashStats aggregates hash-table telemetry across one execution:
// every table/index build records its geometry here (join tables also
// their postings), every bloom-filtered probe its check/pass counts. All counters are atomic — builds
// finish inside forParts fan-outs. A nil *HashStats disables recording.
type HashStats struct {
	builds      atomic.Int64
	entries     atomic.Int64
	buildRows   atomic.Int64
	capacity    atomic.Int64
	maxProbe    atomic.Int64
	bloomChecks atomic.Int64
	bloomPasses atomic.Int64
}

// recordTable records one build: its distinct keys, slot count, worst
// probe sequence and postings (0 for the group indexes, which hold ids,
// not postings).
func (hs *HashStats) recordTable(entries, capacity, maxProbe, rows int) {
	if hs == nil {
		return
	}
	hs.builds.Add(1)
	hs.entries.Add(int64(entries))
	hs.buildRows.Add(int64(rows))
	hs.capacity.Add(int64(capacity))
	for {
		cur := hs.maxProbe.Load()
		if int64(maxProbe) <= cur || hs.maxProbe.CompareAndSwap(cur, int64(maxProbe)) {
			return
		}
	}
}

func (hs *HashStats) recordBloom(checks, passes int) {
	if hs == nil || checks == 0 {
		return
	}
	hs.bloomChecks.Add(int64(checks))
	hs.bloomPasses.Add(int64(passes))
}

// Snapshot captures the counters as plain values.
func (hs *HashStats) Snapshot() HashTableStats {
	if hs == nil {
		return HashTableStats{}
	}
	return HashTableStats{
		Builds:      hs.builds.Load(),
		Entries:     hs.entries.Load(),
		BuildRows:   hs.buildRows.Load(),
		Capacity:    hs.capacity.Load(),
		MaxProbe:    hs.maxProbe.Load(),
		BloomChecks: hs.bloomChecks.Load(),
		BloomPasses: hs.bloomPasses.Load(),
	}
}

// HashTableStats is a point-in-time view of HashStats: how many flat
// tables were built, their summed entries and capacities (the quotient
// is the mean load factor), the postings the join builds inserted, the
// worst probe sequence any build walked, and the Bloom filter's
// check/pass traffic.
type HashTableStats struct {
	Builds      int64
	Entries     int64
	BuildRows   int64
	Capacity    int64
	MaxProbe    int64
	BloomChecks int64
	BloomPasses int64
}

// LoadFactor is the mean occupancy of the built tables (0 when none).
func (s HashTableStats) LoadFactor() float64 {
	if s.Capacity == 0 {
		return 0
	}
	return float64(s.Entries) / float64(s.Capacity)
}

// BloomPassRate is the fraction of bloom-checked probe keys that went on
// to the table (0 when no filter ran); low is good — the complement is
// the fraction of probes the filter skipped.
func (s HashTableStats) BloomPassRate() float64 {
	if s.BloomChecks == 0 {
		return 0
	}
	return float64(s.BloomPasses) / float64(s.BloomChecks)
}
