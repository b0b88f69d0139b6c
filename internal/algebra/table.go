package algebra

import "sync/atomic"

// Row is a flat tuple: one Value per schema slot. The zero-length row is
// valid for the empty schema.
type Row []Value

// Table is the slot-based counterpart of Rel: a bag of flat rows over a
// shared Schema. It is the storage and result representation of the
// execution engine, which runs on its columnar form (Columnar) and
// converts back only at the result (ColTable.Table); Rel remains the
// map-based construction and reference surface.
type Table struct {
	Schema *Schema
	Rows   []Row

	// col caches the columnar form built by Columnar. Tables are shared
	// read-only between operators and sessions, so the cache is an atomic
	// pointer: racing builders compute identical values and the duplicate
	// work is benign.
	col atomic.Pointer[ColTable]
}

// NewTable returns an empty table over the schema.
func NewTable(s *Schema) *Table { return &Table{Schema: s} }

// Card returns the number of rows.
func (t *Table) Card() int { return len(t.Rows) }

// Columnar returns the columnar form of the table, converting on first
// use and caching the result (base tables are scanned by every query of a
// session, so the conversion amortizes across the workload).
func (t *Table) Columnar() *ColTable {
	if c := t.col.Load(); c != nil {
		return c
	}
	c := ColTableOf(t)
	t.col.Store(c)
	return c
}

// TableOf converts a map-tuple relation into a slot-based table. Absent
// attributes become explicit NULLs.
func TableOf(r *Rel) *Table {
	s := NewSchema(r.Attrs)
	t := &Table{Schema: s, Rows: make([]Row, len(r.Tuples))}
	w := len(r.Attrs)
	slab := make([]Value, len(r.Tuples)*w)
	for i, tu := range r.Tuples {
		row := slab[i*w : (i+1)*w : (i+1)*w]
		for j, a := range r.Attrs {
			row[j] = tu.Get(a)
		}
		t.Rows[i] = row
	}
	return t
}

// Rel converts the table back into a map-tuple relation (the boundary
// representation used by tests and result comparison).
func (t *Table) Rel() *Rel {
	out := &Rel{Attrs: append([]string(nil), t.Schema.Names()...)}
	out.Tuples = make([]Tuple, len(t.Rows))
	for i, row := range t.Rows {
		tu := make(Tuple, len(row))
		for j, v := range row {
			tu[t.Schema.Name(j)] = v
		}
		out.Tuples[i] = tu
	}
	return out
}

// NullRow returns a row of NULLs over the schema.
func NullRow(s *Schema) Row {
	return make(Row, s.Len())
}
