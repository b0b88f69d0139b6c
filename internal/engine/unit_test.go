package engine

import (
	"testing"

	"eagg/internal/aggfn"
	"eagg/internal/algebra"
	"eagg/internal/bitset"
)

func TestProductHelper(t *testing.T) {
	tab := algebra.TableOf(algebra.NewRel([]string{"w1", "w2", "w3"},
		[]any{2, 3, 5},
		[]any{1, nil, 4},
	))
	e := &executor{ex: algebra.NewExec(1)}
	in := tab.Columnar()
	// No attributes: no column, empty name.
	name, out := e.product(in, nil)
	if name != "" || out != in {
		t.Error("empty product must be a no-op")
	}
	// Single attribute: passthrough.
	name, out = e.product(in, []string{"w1"})
	if name != "w1" || out != in {
		t.Error("single product must pass through")
	}
	// Multiple: materialized column with NULL propagation.
	name, out = e.product(in, []string{"w1", "w2", "w3"})
	if name == "" || !out.Schema.Has(name) {
		t.Fatal("product column missing")
	}
	rel := out.Table().Rel()
	if v := rel.Tuples[0].Get(name); v.I != 30 {
		t.Errorf("product = %v, want 30", v)
	}
	if !rel.Tuples[1].Get(name).IsNull() {
		t.Error("NULL weight must poison the product")
	}
}

func TestWeightAttrsExclusion(t *testing.T) {
	ws := []weight{
		{attr: "w1", cover: bitset.NewV(0, 1)},
		{attr: "w2", cover: bitset.NewV(2)},
		{attr: "w3", cover: bitset.NewV(3, 4)},
	}
	got := weightAttrs(ws, bitset.NewV(2, 3))
	if len(got) != 1 || got[0] != "w1" {
		t.Errorf("weightAttrs = %v, want [w1]", got)
	}
	all := weightAttrs(ws, bitset.VSet{})
	if len(all) != 3 {
		t.Errorf("weightAttrs(∅) = %v", all)
	}
}

func TestSideDefaults(t *testing.T) {
	c := &refCompiled{
		weights: []weight{{attr: "w", cover: bitset.NewV(0)}},
		aggs: []aggState{
			{}, // raw aggregate: no defaults
			{
				partial:  []string{"p_sum", "p_cnt"},
				defaults: []aggfn.Default{aggfn.DefaultNull, aggfn.DefaultZero},
				cover:    bitset.NewV(0),
			},
		},
	}
	d := sideDefaults(c)
	if d["w"] != algebra.Int(1) {
		t.Errorf("weight default = %v, want 1", d["w"])
	}
	if d["p_cnt"] != algebra.Int(0) {
		t.Errorf("count partial default = %v, want 0", d["p_cnt"])
	}
	if _, ok := d["p_sum"]; ok {
		t.Error("NULL default must coincide with plain padding (absent)")
	}
	// No weights, no zero/one partials → nil defaults.
	if got := sideDefaults(&refCompiled{aggs: []aggState{{}}}); got != nil {
		t.Errorf("expected nil defaults, got %v", got)
	}
	// The slot executor's padRow realizes the same defaults as a full
	// row: weights 1, zero-default partials 0, NULL-default partials NULL.
	sc := &compiled{
		tab:     algebra.NewTable(algebra.NewSchema([]string{"w", "p_sum", "p_cnt", "x"})).Columnar(),
		weights: []weight{{attr: "w", cover: bitset.NewV(0)}},
		aggs: []aggState{
			{},
			{
				partial:  []string{"p_sum", "p_cnt"},
				defaults: []aggfn.Default{aggfn.DefaultNull, aggfn.DefaultZero},
				cover:    bitset.NewV(0),
			},
		},
	}
	pad := padRow(sc)
	s := sc.tab.Schema
	if pad[s.MustSlot("w")] != algebra.Int(1) {
		t.Errorf("pad weight = %v, want 1", pad[s.MustSlot("w")])
	}
	if pad[s.MustSlot("p_cnt")] != algebra.Int(0) {
		t.Errorf("pad count partial = %v, want 0", pad[s.MustSlot("p_cnt")])
	}
	if !pad[s.MustSlot("p_sum")].IsNull() || !pad[s.MustSlot("x")].IsNull() {
		t.Error("NULL-default partials and plain attributes must pad to NULL")
	}
}

func TestCollapseRejectsNonDecomposable(t *testing.T) {
	e := &executor{}
	var inner aggfn.Vector
	_, err := e.collapse(aggfn.Agg{Out: "d", Kind: aggfn.CountDistinct, Arg: "a"}, "", &inner, bitset.NewV(0))
	if err == nil {
		t.Error("collapsing count(distinct) must error")
	}
}

func TestFinalOfRawWeighted(t *testing.T) {
	cases := []struct {
		in   aggfn.Agg
		want aggfn.Kind
	}{
		{aggfn.Agg{Out: "c", Kind: aggfn.CountStar}, aggfn.Sum},
		{aggfn.Agg{Out: "s", Kind: aggfn.Sum, Arg: "a"}, aggfn.SumTimes},
		{aggfn.Agg{Out: "n", Kind: aggfn.Count, Arg: "a"}, aggfn.SumIfNotNull},
		{aggfn.Agg{Out: "v", Kind: aggfn.Avg, Arg: "a"}, aggfn.AvgWeighted},
		{aggfn.Agg{Out: "m", Kind: aggfn.Min, Arg: "a"}, aggfn.Min},
	}
	for _, c := range cases {
		got, err := finalOfRaw(c.in, "w")
		if err != nil {
			t.Fatal(err)
		}
		if got.Kind != c.want {
			t.Errorf("finalOfRaw(%v) = %v, want %v", c.in.Kind, got.Kind, c.want)
		}
	}
	// Without a weight the aggregate passes through unchanged.
	got, err := finalOfRaw(aggfn.Agg{Out: "s", Kind: aggfn.Sum, Arg: "a"}, "")
	if err != nil || got.Kind != aggfn.Sum {
		t.Error("unweighted final must be the original aggregate")
	}
}
