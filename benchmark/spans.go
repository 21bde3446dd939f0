package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed call the benchmark made into a layer's public API.
// Spans of one client operation or replayed quote share a Trace id; Parent
// is the index of the enclosing span in the recorder, or -1 for a root.
type Span struct {
	Name   string `json:"name"`
	Trace  int64  `json:"trace"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Layer is the layer a span belongs to: the part of its name before the
// first dot ("server.query" → "server").
func (s Span) Layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced runs pay one nil check per call site.
type Tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

// NewTracer starts an empty in-memory recorder.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Begin opens a span and returns its index for End and for children.
func (t *Tracer) Begin(name string, trace int64, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Name: name, Trace: trace, Parent: parent, Start: now})
	return len(t.spans) - 1
}

// End closes span i.
func (t *Tracer) End(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// Record adds a span timed by the caller, for calls whose span is only
// kept when their outcome is known, and returns its index.
func (t *Tracer) Record(name string, trace int64, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Name: name, Trace: trace, Parent: parent,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	return len(t.spans) - 1
}

// Spans returns a copy of every recorded span.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// SelfTimes sums, per layer, each span's duration minus the part of its
// interval that its child spans cover.
func SelfTimes(spans []Span) map[string]time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make(map[string]time.Duration)
	for i, s := range spans {
		if s.End < s.Start {
			continue // never closed
		}
		self[s.Layer()] += time.Duration(s.End - s.Start - covered(spans, children[i], s))
	}
	return self
}

// covered is the length of the union of the child intervals, clipped to
// the parent's interval.
func covered(spans []Span, kids []int, parent Span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, parent.Start), min(spans[k].End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// Durations returns the durations of every closed span with the given name.
func Durations(spans []Span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name && s.End >= s.Start {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// writeSpans saves the spans and per-layer self times as JSON under dir.
func writeSpans(dir, workload string, seed int64, spans []Span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	selfMs := make(map[string]float64)
	for layer, d := range SelfTimes(spans) {
		selfMs[layer] = ms(d)
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.json", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		SelfMs   map[string]float64 `json:"self_ms"`
		Spans    []Span             `json:"spans"`
	}{workload, seed, selfMs, spans}); err != nil {
		f.Close() //nolint:errcheck // the encode error is the one to report
		return "", err
	}
	return path, f.Close()
}
