// Command eabench regenerates the tables and figures of the paper's
// evaluation section (Sec. 5).
//
// Usage:
//
//	eabench                          # everything, small default workload
//	eabench -fig 15 -queries 100     # one figure, bigger sample
//	eabench -table 2                 # the TPC-H table
//	eabench -queries 10000 -maxn 20  # the paper's full scale (slow!)
//	eabench -exec -sf 50             # execute plans on generated data
//	eabench -exec -query Q3 -sf 100  # one query, bigger instance
//	eabench -exec -sf 50 -workers 0  # parallel execution on all cores
//	eabench -exec -feedback -sf 1    # cardinality feedback loop report
//	eabench -exec -phys auto -sf 10  # sort-based physical layer competing
//	eabench -exec -query Q3 -trace trace.json   # Chrome trace-event JSON (Perfetto)
//	eabench -exec -json              # machine-readable JSON report
//	eabench -serve -sf 1             # service layer: concurrent sessions, shared engine
//	eabench -serve -sessions 8 -requests 100 -feedback -sf 1
//	eabench -serve -metrics-addr 127.0.0.1:9090   # scrapeable /metrics during the run
//	eabench -large                   # 100-relation shapes on the wide set representation
//	eabench -large -shape star100 -pair-budget 50000
//	eabench -exec -sf 50 -cpuprofile cpu.prof -memprofile mem.prof
//
// The flags mirror the feasibility limits reported in the paper: EA-All is
// only run up to -maxn-exhaustive relations and EA-Prune up to -maxn-prune.
//
// The -exec mode leaves the optimizer benchmarks behind and measures the
// execution runtime: each TPC-H query is optimized lazily (DPhyp) and
// eagerly (EA-Prune), both plans plus the canonical initial tree run on
// synthetic data scaled by -sf, results are verified to be identical, and
// the report shows wall time, throughput (intermediate + final rows per
// second) and the q-error between the C_out cost estimate and the
// measured intermediate-result volume. -workers applies to both the
// optimizer and the morsel-driven execution runtime; every worker count
// produces bit-identical plans and results, only the wall times change.
//
// -phys (requires -exec) selects the physical algebra: "hash" (default)
// is the build/probe hash layer, "sort" prefers sort-merge joins and
// sort-group aggregation, "auto" lets both layers compete — the DP table
// keeps plan classes per (relation set, collapse state, order) and the
// report's sorts column shows performed/eliminated sorts, the eliminated
// ones being reused interesting orders. Results are identical across all
// three modes.
//
// The -serve mode (mutually exclusive with -exec) measures the embedded
// query-service layer: one engine — shared worker pool, plan cache, and
// with -feedback a global measured-cardinality overlay — serves -sessions
// concurrent sessions replaying the selected TPC-H shapes against
// resident data, -requests times per shape. The report shows per-shape
// throughput, p50/p99 latency, cache hits and the engine's shared-state
// counters; every response is verified against the canonical result, so
// the mode doubles as a concurrency soak.
//
// The -large mode (mutually exclusive with -exec and -serve) exercises
// the wide set representation: 100-relation chain, star and clique
// shapes are optimized with H1 and beam search — the generators that
// stay feasible at this scale — executed end-to-end on deterministic
// data and verified against the canonical evaluation. -shape selects
// shapes, -pair-budget caps the exact csg-cmp-pair enumeration (beyond
// it the deterministic greedy fallback builds the plan; stars and
// cliques always exceed any practical budget, chains never do). With
// the default budget the full report takes a few minutes, most of it
// the beam search on the 100-relation chain; -pair-budget 50000 brings
// it under a minute.
//
// -cpuprofile and -memprofile write pprof profiles covering whatever
// mode runs (any mode: the optimizer benchmarks, -exec, -serve, -large),
// so hot-path work is measurable without editing code: the CPU profile
// spans the whole run, the heap profile is captured after the workload
// finishes (post-GC, so it shows live retention, not transient garbage).
// An unwritable profile path is misuse and exits 2 before any work runs.
//
// -feedback (requires -exec) closes the cardinality feedback loop: each
// query is optimized, executed, the measured per-operator cardinalities
// are overlaid on the estimator, and the query is re-optimized — until
// the chosen plan is stable. The report compares the plan-level and
// worst-operator q-errors of the first (pure model) and final rounds,
// whether feedback changed the plan, and the measured C_out delta.
//
// -trace (requires -exec; composes with -feedback) records a structured
// trace of the run — per-query spans, optimizer phases with dp-level
// timing, executor operators with rows in/out and wall time — and writes
// it as Chrome trace-event JSON, openable in Perfetto (ui.perfetto.dev)
// or chrome://tracing. An unwritable path is misuse and exits 2 before
// any work runs.
//
// -json (requires -exec; composes with -feedback) replaces the aligned
// text report with machine-readable JSON on stdout — same rows, same
// quantities, enums rendered as strings.
//
// -metrics-addr (requires -serve) binds an HTTP listener for the
// duration of the serving phase: /metrics serves the engine's registry
// in the Prometheus text exposition (counters, gauges, latency
// histograms), /debug/vars the same registry through expvar. An address
// that cannot be bound is misuse and exits 2 before any work runs; the
// bound address (useful with :0) is printed to stderr.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"eagg/internal/core"
	"eagg/internal/experiments"
	"eagg/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment injected, so the flag-hygiene rules
// (exit 2 on misuse, exit 1 on verification failures) are testable. The
// named return lets the deferred heap-profile write both see the final
// code and degrade it on write failure.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("eabench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.Int("fig", 0, "figure to reproduce (15, 16, 17, 18); 0 = all")
	table := fs.Int("table", 0, "table to reproduce (1, 2); 0 = all")
	queries := fs.Int("queries", 20, "random queries per relation count (paper: 10000)")
	seed := fs.Int64("seed", 42, "workload seed")
	maxN := fs.Int("maxn", 14, "largest relation count for the fast algorithms (paper: 20)")
	maxNPrune := fs.Int("maxn-prune", 10, "largest relation count for EA-Prune (paper: ~13)")
	maxNExh := fs.Int("maxn-exhaustive", 7, "largest relation count for EA-All (paper: ~8)")
	workers := fs.Int("workers", 1, "workers per query for the optimizer and (with -exec) morsel-driven plan execution (0 = GOMAXPROCS, 1 = the paper's sequential conditions); plans and results are identical for every value")
	execMode := fs.Bool("exec", false, "execute optimized vs canonical plans on generated data instead of running optimizer benchmarks")
	feedback := fs.Bool("feedback", false, "with -exec: close the cardinality feedback loop (optimize → execute → re-optimize with measured cardinalities until the plan is stable) and report q-error before/after; with -serve: enable the engine's shared feedback overlay")
	phys := fs.String("phys", "", "with -exec or -serve: physical algebra — hash (default), sort (sort-merge join/aggregation), or auto (both compete; the sorts column reports performed/eliminated)")
	sf := fs.Float64("sf", 10, "-exec/-serve: scale factor multiplying the base synthetic instance sizes (must be > 0)")
	execQuery := fs.String("query", "", "-exec/-serve: comma-separated TPC-H queries (Ex, Q3, Q5, Q10); empty = all")
	serve := fs.Bool("serve", false, "run the service-layer throughput mode: one shared engine (plan cache, shared scheduler, optional -feedback overlay) serving -sessions concurrent sessions replaying the selected query shapes; reports qps and p50/p99 latency")
	large := fs.Bool("large", false, "run the large-query mode: optimize 100-relation shapes on the wide set representation (H1 and beam search; the exact generators are infeasible at this scale), execute the plans end-to-end and verify the results")
	shape := fs.String("shape", "", "with -large: comma-separated shapes ("+strings.Join(experiments.LargeShapeNames(), ", ")+"); empty = all")
	pairBudget := fs.Int("pair-budget", 0, "with -large: csg-cmp-pair enumeration budget (0 = the optimizer default; exceeding it switches to the deterministic greedy fallback)")
	sessions := fs.Int("sessions", 0, "with -serve: concurrent sessions driving the engine (default 4, must be > 0)")
	requests := fs.Int("requests", 0, "with -serve: requests served per query shape across all sessions (default 20, must be > 0)")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile (post-GC, live retention) to this file at exit")
	tracePath := fs.String("trace", "", "with -exec: write a Chrome trace-event JSON file of the run (optimizer phases, executor operators; open in Perfetto or chrome://tracing)")
	jsonOut := fs.Bool("json", false, "with -exec: print the report as machine-readable JSON instead of the aligned table (composes with -feedback)")
	metricsAddr := fs.String("metrics-addr", "", "with -serve: serve the engine's metrics on this address for the duration of the run — /metrics (Prometheus text) and /debug/vars (expvar); the bound address is printed to stderr")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0 // -h / --help is a request, not misuse
		}
		return 2
	}
	if *workers < 0 {
		fmt.Fprintf(stderr, "eabench: -workers must be ≥ 0 (0 = all cores), got %d\n", *workers)
		return 2
	}
	if *workers == 0 {
		*workers = runtime.GOMAXPROCS(0)
	}
	if *serve && *execMode {
		fmt.Fprintln(stderr, "eabench: -serve and -exec are mutually exclusive (pick the service-throughput or the single-plan execution report)")
		return 2
	}
	if *large && (*execMode || *serve) {
		fmt.Fprintln(stderr, "eabench: -large is mutually exclusive with -exec and -serve (it runs its own optimize-and-execute report)")
		return 2
	}
	if !*large && (*shape != "" || *pairBudget != 0) {
		fmt.Fprintln(stderr, "eabench: -shape and -pair-budget require -large (they select and bound the large-query shapes)")
		return 2
	}
	if *pairBudget < 0 {
		fmt.Fprintf(stderr, "eabench: -pair-budget must be ≥ 0, got %d\n", *pairBudget)
		return 2
	}
	if *large && *feedback {
		fmt.Fprintln(stderr, "eabench: -feedback requires -exec or -serve (the large-query mode executes each plan once)")
		return 2
	}
	if *feedback && !*execMode && !*serve {
		fmt.Fprintln(stderr, "eabench: -feedback requires -exec or -serve (feedback harvests cardinalities from plan execution)")
		return 2
	}
	if *phys != "" && !*execMode && !*serve {
		fmt.Fprintln(stderr, "eabench: -phys requires -exec or -serve (the physical algebra only matters when plans are executed)")
		return 2
	}
	physMode, err := core.ParsePhysMode(*phys)
	if err != nil {
		fmt.Fprintf(stderr, "eabench: -phys: %v\n", err)
		return 2
	}
	if (*execMode || *serve) && !(*sf > 0) { // rejects NaN too, unlike *sf <= 0
		fmt.Fprintf(stderr, "eabench: -sf must be > 0, got %g\n", *sf)
		return 2
	}
	if !*serve && (*sessions != 0 || *requests != 0) {
		fmt.Fprintln(stderr, "eabench: -sessions and -requests require -serve (they size the service-layer workload)")
		return 2
	}
	if *serve {
		if *sessions == 0 {
			*sessions = 4
		}
		if *requests == 0 {
			*requests = 20
		}
		if *sessions < 0 || *requests < 0 {
			fmt.Fprintf(stderr, "eabench: -sessions and -requests must be > 0, got %d/%d\n", *sessions, *requests)
			return 2
		}
	}
	if *tracePath != "" && !*execMode {
		fmt.Fprintln(stderr, "eabench: -trace requires -exec (the trace records one run's optimizer phases and executor operators)")
		return 2
	}
	if *jsonOut && !*execMode {
		fmt.Fprintln(stderr, "eabench: -json requires -exec (only the -exec and -exec -feedback reports have a JSON form)")
		return 2
	}
	if *metricsAddr != "" && !*serve {
		fmt.Fprintln(stderr, "eabench: -metrics-addr requires -serve (the metrics endpoint scrapes a running engine)")
		return 2
	}

	// Profile setup runs after every flag check above: a misused flag
	// combination exits 2 without creating profile files, and a profile
	// path that cannot be created (or a CPU profile that cannot start) is
	// itself misuse — exit 2 before any workload runs.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "eabench: -cpuprofile: %v\n", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintf(stderr, "eabench: -cpuprofile: %v\n", err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil && code == 0 {
				fmt.Fprintf(stderr, "eabench: -cpuprofile: %v\n", err)
				code = 1
			}
		}()
	}
	// Like the profiles: create the trace file and bind the metrics
	// listener up front, so a path or address that cannot work is misuse
	// (exit 2) before any workload runs.
	var traceFile *os.File
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintf(stderr, "eabench: -trace: %v\n", err)
			return 2
		}
		traceFile = f
	}
	var metricsLn net.Listener
	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fmt.Fprintf(stderr, "eabench: -metrics-addr: %v\n", err)
			return 2
		}
		metricsLn = ln
		fmt.Fprintf(stderr, "eabench: metrics on http://%s/metrics\n", ln.Addr())
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(stderr, "eabench: -memprofile: %v\n", err)
			return 2
		}
		defer func() {
			// Post-GC heap: live retention at exit, not transient garbage.
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil && code == 0 {
				fmt.Fprintf(stderr, "eabench: -memprofile: %v\n", err)
				code = 1
			}
			if err := f.Close(); err != nil && code == 0 {
				fmt.Fprintf(stderr, "eabench: -memprofile: %v\n", err)
				code = 1
			}
		}()
	}

	var trace *obs.Trace
	if traceFile != nil {
		trace = obs.NewTrace()
	}
	// writeTrace flushes the collected spans as Chrome trace-event JSON;
	// it runs after the report so a verification failure still leaves the
	// trace on disk for diagnosis.
	writeTrace := func() int {
		if traceFile == nil {
			return 0
		}
		err := trace.WriteChrome(traceFile)
		if cerr := traceFile.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(stderr, "eabench: -trace: %v\n", err)
			return 1
		}
		return 0
	}

	cfg := experiments.Config{
		Queries:        *queries,
		Seed:           *seed,
		MaxN:           *maxN,
		MaxNPrune:      *maxNPrune,
		MaxNExhaustive: *maxNExh,
		Workers:        *workers,
		Phys:           physMode,
		Trace:          trace,
	}

	var names []string
	if *execQuery != "" {
		if *large {
			fmt.Fprintln(stderr, "eabench: -query selects TPC-H queries and requires -exec or -serve (use -shape with -large)")
			return 2
		}
		for _, n := range strings.Split(*execQuery, ",") {
			names = append(names, strings.TrimSpace(n))
		}
	}
	if *large {
		var shapes []string
		if *shape != "" {
			for _, s := range strings.Split(*shape, ",") {
				s = strings.TrimSpace(s)
				if _, ok := experiments.LargeShapes[s]; !ok {
					fmt.Fprintf(stderr, "eabench: unknown -shape %q (known: %s)\n", s, strings.Join(experiments.LargeShapeNames(), ", "))
					return 2
				}
				shapes = append(shapes, s)
			}
		}
		rep := experiments.LargeEval(cfg, shapes, *pairBudget)
		fmt.Fprint(stdout, rep.Format())
		if !rep.AllMatch() {
			fmt.Fprintln(stderr, "eabench: some large-query plans did not reproduce the canonical result")
			return 1
		}
		return 0
	}
	if *serve {
		rep := experiments.ServeEvalMetrics(cfg, *sf, names, *sessions, *requests, *feedback, metricsLn)
		fmt.Fprint(stdout, rep.Format())
		if !rep.AllMatch() {
			fmt.Fprintln(stderr, "eabench: some served responses did not reproduce the canonical result")
			return 1
		}
		return 0
	}

	if *execMode {
		if *feedback {
			rep := experiments.FeedbackEval(cfg, *sf, names)
			if *jsonOut {
				if err := rep.WriteJSON(stdout); err != nil {
					fmt.Fprintf(stderr, "eabench: -json: %v\n", err)
					return 1
				}
			} else {
				fmt.Fprint(stdout, rep.Format())
			}
			if c := writeTrace(); c != 0 {
				return c
			}
			if !rep.AllMatch() {
				fmt.Fprintln(stderr, "eabench: some re-optimized plans did not reproduce the canonical result")
				return 1
			}
			return 0
		}
		rep := experiments.ExecEval(cfg, *sf, names)
		if *jsonOut {
			if err := rep.WriteJSON(stdout); err != nil {
				fmt.Fprintf(stderr, "eabench: -json: %v\n", err)
				return 1
			}
		} else {
			fmt.Fprint(stdout, rep.Format())
		}
		if c := writeTrace(); c != 0 {
			return c
		}
		if !rep.AllMatch() {
			fmt.Fprintln(stderr, "eabench: some optimized plans did not reproduce the canonical result")
			return 1
		}
		return 0
	}

	selectedFig := func(n int) bool { return *fig == 0 && *table == 0 || *fig == n }
	selectedTable := func(n int) bool { return *fig == 0 && *table == 0 || *table == n }

	ran := false
	if selectedTable(1) {
		fmt.Fprint(stdout, experiments.Table1().Format())
		fmt.Fprintln(stdout)
		ran = true
	}
	if selectedFig(15) {
		fmt.Fprint(stdout, experiments.Fig15(cfg).Format())
		fmt.Fprintln(stdout)
		ran = true
	}
	if selectedFig(16) {
		fmt.Fprint(stdout, experiments.Fig16(cfg).Format())
		fmt.Fprintln(stdout)
		ran = true
	}
	if selectedFig(17) {
		fmt.Fprint(stdout, experiments.Fig17(cfg).Format())
		fmt.Fprintln(stdout)
		ran = true
	}
	if selectedFig(18) {
		fmt.Fprint(stdout, experiments.Fig18(cfg).Format())
		fmt.Fprintln(stdout)
		ran = true
	}
	if selectedTable(2) {
		fmt.Fprint(stdout, experiments.FormatTable2(experiments.Table2()))
		ran = true
	}
	if !ran {
		fmt.Fprintf(stderr, "eabench: nothing selected (use -fig 15|16|17|18 or -table 1|2)\n")
		return 2
	}
	return 0
}
