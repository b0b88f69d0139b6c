package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"eagg/internal/obs"
)

// span is one interval the benchmark recorded around a call into the
// program, or copied from the obs.Trace the call returned. Spans of one
// request share req; parent indexes the same recorder (-1 for the
// request's root).
type span struct {
	req     int
	parent  int
	name    string
	layer   string
	tid     int
	start   time.Duration // since the run's origin
	dur     time.Duration
	program bool // recorded by the program into an obs.Trace
}

// recorder collects the spans of one client goroutine.
type recorder struct {
	origin time.Time
	tid    int
	spans  []span
}

func newRecorder(origin time.Time, tid int) *recorder {
	return &recorder{origin: origin, tid: tid}
}

func (r *recorder) now() time.Duration { return time.Since(r.origin) }

// begin opens a span; close it with end.
func (r *recorder) begin(req, parent int, name, layer string) int {
	return r.emit(req, parent, name, layer, r.now(), -1)
}

func (r *recorder) end(id int) { r.spans[id].dur = r.now() - r.spans[id].start }

// emit adds a finished span with explicit timing.
func (r *recorder) emit(req, parent int, name, layer string, start, dur time.Duration) int {
	r.spans = append(r.spans, span{req: req, parent: parent, name: name, layer: layer, tid: r.tid, start: start, dur: dur})
	return len(r.spans) - 1
}

// adopt copies the spans of tr, a trace started at base on the
// recorder's clock, under parent.
func (r *recorder) adopt(req, parent int, base time.Duration, tr *obs.Trace) {
	idx := make(map[int]int, tr.Len())
	for _, sp := range tr.Spans() {
		p := parent
		if sp.Parent >= 0 {
			p = idx[sp.Parent]
		}
		idx[sp.ID] = r.emit(req, p, sp.Name, obsLayer(sp), base+sp.Start(), sp.Dur())
		r.spans[idx[sp.ID]].program = true
	}
}

// obsLayer names the layer an obs.Trace span belongs to.
func obsLayer(sp obs.Span) string {
	switch sp.Cat {
	case "optimize":
		return "core.optimize"
	case "dp-level":
		return "core.dp"
	case "op":
		switch {
		case strings.HasPrefix(sp.Name, "Γ"):
			return "engine.group"
		case strings.HasPrefix(sp.Name, "scan "):
			return "engine.scan"
		case strings.HasPrefix(sp.Name, "Π"):
			return "engine.project"
		}
		return "engine.join"
	}
	return sp.Cat
}

// selfSince returns the self times — duration minus the children's
// durations — of the spans recorded from index first on, whose children
// are all recorded after them.
func (r *recorder) selfSince(first int) []time.Duration {
	self := make([]time.Duration, len(r.spans)-first)
	for k := first; k < len(r.spans); k++ {
		self[k-first] += r.spans[k].dur
		if p := r.spans[k].parent; p >= first {
			self[p-first] -= r.spans[k].dur
		}
	}
	return self
}

// opSelf sums the self times of the join and grouping operator spans
// recorded from index first on.
func (r *recorder) opSelf(first int) (join, group time.Duration) {
	for k, d := range r.selfSince(first) {
		switch r.spans[first+k].layer {
		case "engine.join":
			join += d
		case "engine.group":
			group += d
		}
	}
	return join, group
}

// layerSelf sums self time per layer over the given recorders.
func layerSelf(recs ...*recorder) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, r := range recs {
		self := r.selfSince(0)
		for i, sp := range r.spans {
			out[sp.layer] += self[i]
		}
	}
	return out
}

// programSelf sums the self times of the spans the program recorded.
// Their children are all program spans too, so the sum is the time
// inside the program's calls that some layer of the program accounts
// for.
func programSelf(recs ...*recorder) time.Duration {
	var out time.Duration
	for _, r := range recs {
		for i, d := range r.selfSince(0) {
			if r.spans[i].program {
				out += d
			}
		}
	}
	return out
}

// printLayers writes the self-time share of every layer to stderr.
func printLayers(w io.Writer, by map[string]time.Duration, total time.Duration) {
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return by[names[i]] > by[names[j]] })
	fmt.Fprintf(w, "layer self time over %.3f s:\n", total.Seconds())
	for _, n := range names {
		fmt.Fprintf(w, "  %-18s %10.3f ms  %5.1f%%\n", n, ms(by[n]), 100*by[n].Seconds()/total.Seconds())
	}
}

// writeChrome writes every span as a Chrome trace-event file (complete
// events, one thread per client), which Perfetto and chrome://tracing
// open directly.
func writeChrome(path string, recs ...*recorder) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	var events []event
	for _, r := range recs {
		for _, sp := range r.spans {
			events = append(events, event{
				Name: sp.name, Cat: sp.layer, Ph: "X",
				TS:  float64(sp.start.Nanoseconds()) / 1e3,
				Dur: float64(max(sp.dur, 0).Nanoseconds()) / 1e3,
				PID: 1, TID: sp.tid,
				Args: map[string]any{"req": sp.req},
			})
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
