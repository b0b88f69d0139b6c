package algebra

import (
	"fmt"

	"eagg/internal/aggfn"
)

// Aggregate binding and accumulators shared by the columnar aggregation
// operators (BatchHashGroup's generic kernel, BatchHashGroupJoin,
// SortGroup): an aggregation vector is bound against a schema once
// (attribute names → slots), and every aggregate folds its group
// incrementally through a small accumulator instead of re-scanning
// collected tuple slices. Rows are folded in input order, so even
// order-sensitive float summation matches the reference operators bit for
// bit.

// BoundAgg is one aggregate of a vector with its inputs resolved to
// slots. Slot -1 means "attribute absent", which reads as NULL exactly
// like the map runtime.
type BoundAgg struct {
	Kind           aggfn.Kind
	Arg, Arg2, Wgt int
}

// BindVector resolves an aggregation vector against a schema.
func BindVector(f aggfn.Vector, s *Schema) []BoundAgg {
	out := make([]BoundAgg, len(f))
	slot := func(name string) int {
		if name == "" {
			return -1
		}
		if i, ok := s.Slot(name); ok {
			return i
		}
		return -1
	}
	for i, a := range f {
		out[i] = BoundAgg{
			Kind: a.Kind,
			Arg:  slot(a.Arg),
			Arg2: slot(a.Arg2),
			Wgt:  slot(a.Weight),
		}
	}
	return out
}

// aggCell is the accumulator state of one aggregate in one group.
type aggCell struct {
	count int64 // CountStar / Count / Avg denominator
	sum   Value // running sum, min/max best, or numerator
	sum2  Value // second running sum (denominators of the merge forms)
	seen  map[string]struct{}
	vals  []Value // distinct non-NULL values in first-seen order
}

// addTo folds one term into a running SQL sum: NULL terms are skipped and
// the sum of no terms is NULL.
func addTo(s Value, term Value) Value {
	if term.IsNull() {
		return s
	}
	if s.IsNull() {
		return term
	}
	return Add(s, term)
}

// updateVals folds one input row, given as the aggregate's input values,
// into the accumulator — the shared fold core of the batch grouper's
// generic kernel (batchagg.go), the groupjoin and sort-group aggregation
// (sort.go), so every path follows one accumulator trajectory. scratch
// is a reusable per-worker key buffer for the distinct forms (reset on
// every use, so sharing one across rows and aggregates is safe).
func (c *aggCell) updateVals(a *BoundAgg, arg, arg2, wgt Value, scratch *[]byte) {
	switch a.Kind {
	case aggfn.CountStar:
		c.count++
	case aggfn.Count:
		if !arg.IsNull() {
			c.count++
		}
	case aggfn.Sum:
		c.sum = addTo(c.sum, arg)
	case aggfn.SumTimes:
		c.sum = addTo(c.sum, Mul(arg, arg2))
	case aggfn.SumIfNotNull:
		if arg.IsNull() {
			c.sum = addTo(c.sum, Int(0))
		} else {
			c.sum = addTo(c.sum, arg2)
		}
	case aggfn.Min, aggfn.Max:
		if arg.IsNull() {
			return
		}
		if c.sum.IsNull() {
			c.sum = arg
			return
		}
		r, _ := CompareStrict(arg, c.sum)
		if (a.Kind == aggfn.Min && r < 0) || (a.Kind == aggfn.Max && r > 0) {
			c.sum = arg
		}
	case aggfn.Avg:
		c.sum = addTo(c.sum, arg)
		if !arg.IsNull() {
			c.count++
		}
	case aggfn.AvgMerge:
		num, den := arg, arg2
		if a.Wgt >= 0 {
			num, den = Mul(num, wgt), Mul(den, wgt)
		}
		c.sum = addTo(c.sum, num)
		c.sum2 = addTo(c.sum2, den)
	case aggfn.AvgWeighted:
		c.sum = addTo(c.sum, Mul(arg, arg2))
		if arg.IsNull() {
			c.sum2 = addTo(c.sum2, Int(0))
		} else {
			c.sum2 = addTo(c.sum2, arg2)
		}
	case aggfn.SumDistinct, aggfn.CountDistinct, aggfn.AvgDistinct:
		if arg.IsNull() {
			return
		}
		if c.seen == nil {
			c.seen = map[string]struct{}{}
		}
		*scratch = appendKeyValue((*scratch)[:0], arg)
		if _, dup := c.seen[string(*scratch)]; !dup {
			c.seen[string(*scratch)] = struct{}{}
			c.vals = append(c.vals, arg)
		}
	default:
		panic(fmt.Sprintf("algebra: unknown aggregate kind %v", a.Kind))
	}
}

// final produces the aggregate's result value.
func (c *aggCell) final(a *BoundAgg) Value {
	switch a.Kind {
	case aggfn.CountStar, aggfn.Count:
		return Int(c.count)
	case aggfn.Sum, aggfn.SumTimes, aggfn.SumIfNotNull, aggfn.Min, aggfn.Max:
		return c.sum
	case aggfn.Avg:
		return Div(c.sum, Int(c.count))
	case aggfn.AvgMerge, aggfn.AvgWeighted:
		return Div(c.sum, c.sum2)
	case aggfn.CountDistinct:
		return Int(int64(len(c.vals)))
	case aggfn.SumDistinct:
		var s Value = Null
		for _, v := range c.vals {
			s = addTo(s, v)
		}
		return s
	case aggfn.AvgDistinct:
		if len(c.vals) == 0 {
			return Null
		}
		var s Value = Null
		for _, v := range c.vals {
			s = addTo(s, v)
		}
		return Div(s, Int(int64(len(c.vals))))
	}
	panic(fmt.Sprintf("algebra: unknown aggregate kind %v", a.Kind))
}
