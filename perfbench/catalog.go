package main

import (
	"fmt"
	"math"

	"eagg/internal/algebra"
	"eagg/internal/engine"
	"eagg/internal/query"
)

// fitCatalog sets q's statistics from its data, so that the optimizer
// plans against the database it runs on:
//
//   - a relation's cardinality is its row count;
//   - an attribute's distinct count is its number of distinct non-NULL
//     values;
//   - a predicate's selectivity is the product, over its attribute
//     pairs, of |R ⋈ S| / (|R|·|S|) for the two base relations the pair
//     links. For single-pair predicates this is exact; a predicate over
//     several pairs (Q5's cyclic supplier join) assumes them independent.
//
// Cardinality estimates of intermediate results are then wrong only
// through the estimator's independence assumptions.
func fitCatalog(q *query.Query, data engine.TableData) error {
	freq := make([]map[algebra.Value]int, len(q.AttrNames))
	for ri := range q.Relations {
		tab := data[ri]
		if tab == nil || tab.Card() == 0 {
			return fmt.Errorf("relation %s has no rows", q.Relations[ri].Name)
		}
		q.Relations[ri].Card = float64(tab.Card())
	}
	for a, name := range q.AttrNames {
		rel := q.Relations[q.AttrRel[a]].Name
		slot, ok := data[q.AttrRel[a]].Schema.Slot(name)
		if !ok {
			return fmt.Errorf("relation %s has no column %s", rel, name)
		}
		freq[a] = map[algebra.Value]int{}
		for _, row := range data[q.AttrRel[a]].Rows {
			if v := row[slot]; !v.IsNull() {
				freq[a][v]++
			}
		}
		q.Distinct[a] = math.Max(1, float64(len(freq[a])))
	}
	var walk func(n *query.OpNode) error
	walk = func(n *query.OpNode) error {
		if n.Kind == query.KindScan {
			return nil
		}
		sel := 1.0
		for i, la := range n.Pred.Left {
			ra := n.Pred.Right[i]
			matches := 0.0
			for v, c := range freq[la] {
				matches += float64(c) * float64(freq[ra][v])
			}
			sel *= matches / (q.Relations[q.AttrRel[la]].Card * q.Relations[q.AttrRel[ra]].Card)
		}
		if sel <= 0 {
			return fmt.Errorf("predicate %s = %s matches no rows", q.AttrNames[n.Pred.Left[0]], q.AttrNames[n.Pred.Right[0]])
		}
		n.Pred.Selectivity = sel
		if err := walk(n.Left); err != nil {
			return err
		}
		return walk(n.Right)
	}
	if err := walk(q.Root); err != nil {
		return err
	}
	return checkCatalog(q, data)
}

// checkCatalog fails unless every base relation's catalog cardinality
// equals its row count and the query is valid.
func checkCatalog(q *query.Query, data engine.TableData) error {
	for ri, rel := range q.Relations {
		tab := data[ri]
		if tab == nil {
			return fmt.Errorf("no data for relation %s", rel.Name)
		}
		if rel.Card != float64(tab.Card()) {
			return fmt.Errorf("catalog says %s has %g rows, data has %d", rel.Name, rel.Card, tab.Card())
		}
	}
	return q.Validate()
}

// bag is an order-independent digest of a relation's rows projected on
// a fixed attribute order: equal bags give equal digests, and two
// different bags collide only with probability about 2^-64.
type bag struct {
	rows      int
	sum, sum2 uint64
}

// digest computes the bag digest of t over attrs.
func digest(t *algebra.Table, attrs []string) (bag, error) {
	slots := make([]int, len(attrs))
	for i, a := range attrs {
		s, ok := t.Schema.Slot(a)
		if !ok {
			return bag{}, fmt.Errorf("result has no column %s", a)
		}
		slots[i] = s
	}
	b := bag{rows: t.Card()}
	for _, row := range t.Rows {
		h := uint64(14695981039346656037)
		for _, s := range slots {
			h = hashValue(h, row[s])
		}
		b.sum += h
		b.sum2 += mix(h)
	}
	return b, nil
}

// hashValue folds v into the FNV-1a state h.
func hashValue(h uint64, v algebra.Value) uint64 {
	word := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= 1099511628211
			x >>= 8
		}
	}
	word(uint64(v.Kind))
	switch v.Kind {
	case algebra.KindInt:
		word(uint64(v.I))
	case algebra.KindFloat:
		word(math.Float64bits(v.F))
	case algebra.KindString:
		word(uint64(len(v.S)))
		for i := 0; i < len(v.S); i++ {
			h ^= uint64(v.S[i])
			h *= 1099511628211
		}
	}
	return h
}

// mix is the splitmix64 finalizer: a second, independent row hash.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}
