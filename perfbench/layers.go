package main

import (
	"math"
	"time"

	"eagg/internal/algebra"
	"eagg/internal/bitset"
	"eagg/internal/conflict"
	"eagg/internal/core"
	"eagg/internal/cost"
	"eagg/internal/engine"
	"eagg/internal/query"
)

// probes is how many queries the traced run times the layer entry
// points on, one call at a time.
const probes = 60

// costSlack absorbs rounding when comparing plan costs. EA-Prune's plan
// should never cost more than DPhyp's, since EA-All's search space holds
// every DPhyp plan and the pruning is meant to keep the optimum. Every
// workload reports the share of its queries where it does as
// core.costlier_than_dphyp_frac.
const costSlack = 1e-9

// optRecord is one optimize call.
type optRecord struct {
	stats core.Stats
	dur   time.Duration
}

// execRecord is one execution.
type execRecord struct {
	cell  int
	at    time.Duration // start, since the phase began
	dur   time.Duration
	stats *engine.ExecStats
	join  time.Duration // self time of the join operator spans
	group time.Duration // self time of the grouping operator spans
}

// coreMetrics summarizes optimize calls: per-call means of the time and
// the search effort core.Stats reports.
func coreMetrics(recs []optRecord) map[string]float64 {
	var opt, dp, pairs, built, kept float64
	for _, r := range recs {
		opt += ms(r.dur)
		for _, l := range r.stats.Levels {
			dp += ms(l.Duration)
		}
		pairs += float64(r.stats.CsgCmpPairs)
		built += float64(r.stats.PlansBuilt)
		kept += float64(r.stats.TablePlans)
	}
	n := float64(len(recs))
	return map[string]float64{
		"core.optimize_ms":   ratio(opt, n),
		"core.dp_ms":         ratio(dp, n),
		"core.prep_ms":       ratio(opt-dp, n),
		"core.csg_cmp_pairs": ratio(pairs, n),
		"core.plans_built":   ratio(built, n),
		"core.table_plans":   ratio(kept, n),
		"core.kept_ratio":    ratio(kept, built),
	}
}

// probeLayers calls the optimizer's layer entry points one at a time on
// each query: conflict detection, estimator construction and
// fingerprinting (median µs per call), and one optimization between two
// reads of the allocation counter (mean kB per call).
func probeLayers(qs []*query.Query, opts core.Options) map[string]float64 {
	var detect, estim, fp []float64
	var alloc uint64
	for _, q := range qs {
		t := time.Now()
		conflict.Detect[bitset.Set64](q)
		detect = append(detect, us(time.Since(t)))
		t = time.Now()
		cost.NewEstimator(q)
		estim = append(estim, us(time.Since(t)))
		t = time.Now()
		core.Fingerprint(q, opts)
		fp = append(fp, us(time.Since(t)))
		a := allocated()
		core.Optimize(q, opts)
		alloc += allocated() - a
	}
	return map[string]float64{
		"conflict.detect_us":  median(detect),
		"cost.estimator_us":   median(estim),
		"core.fingerprint_us": median(fp),
		"core.alloc_kb":       float64(alloc) / 1024 / math.Max(1, float64(len(qs))),
	}
}

// engineMetrics summarizes executions: per-execution means of operator
// self times and measured C_out, the C_out q-error, and the hash-table
// telemetry.
func engineMetrics(recs []execRecord) map[string]float64 {
	var join, group, other, cout float64
	var qerr []float64
	var hs algebra.HashTableStats
	for _, r := range recs {
		join += ms(r.join)
		group += ms(r.group)
		other += ms(r.dur - r.join - r.group)
		cout += r.stats.ActualCout
		qerr = append(qerr, r.stats.CoutQError())
		h := r.stats.Hash
		hs.Entries += h.Entries
		hs.Capacity += h.Capacity
		hs.MaxProbe = max(hs.MaxProbe, h.MaxProbe)
		hs.BloomChecks += h.BloomChecks
		hs.BloomPasses += h.BloomPasses
	}
	n := float64(len(recs))
	return map[string]float64{
		"engine.join_self_ms":     ratio(join, n),
		"engine.group_self_ms":    ratio(group, n),
		"engine.other_ms":         ratio(other, n),
		"engine.cout_actual":      ratio(cout, n),
		"engine.cout_qerror":      geomean(qerr),
		"algebra.ht_load":         hs.LoadFactor(),
		"algebra.ht_max_probe":    float64(hs.MaxProbe),
		"algebra.bloom_pass_rate": hs.BloomPassRate(),
	}
}
