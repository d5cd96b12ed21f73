package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Span names, one per layer boundary the benchmark's own code calls
// across. Spans inside the Mux and the Router are out of reach; the
// ladder (ladder.go) measures those layers as differences between
// rungs instead.
const (
	spanRequest = "client.request"
	spanIngest  = "station.Ingest"
	spanDecode  = "station.DecodeFunc"
	spanExpand  = "registry.Built.ExpandQ"
	spanServe   = "serve.Server.DecodeQ"
	spanBatch   = "batch.Parallel.DecodeQInto"
)

// span is one timed call. Start and End are nanoseconds since the
// tracer's origin; Parent is the index of the enclosing span or -1;
// Frame is the per-frame (or per-chunk) id shared by a request's spans;
// Rung names the phase that recorded it ("main" or a ladder rung); N is
// the frames the call carried.
type span struct {
	Name   string `json:"name"`
	Rung   string `json:"rung"`
	Frame  int64  `json:"frame"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int    `json:"n,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a finished span and returns its index, for children to
// name as their parent.
func (t *tracer) add(name, rung string, frame int64, parent int, start, end time.Time, n int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, Rung: rung, Frame: frame, Parent: parent,
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin)), N: n,
	})
	return len(t.spans) - 1
}

// reserve records a span whose end is not known yet (a parent whose
// children finish first); finish fills the end in.
func (t *tracer) reserve(name, rung string, frame int64, start time.Time) int {
	return t.add(name, rung, frame, -1, start, start, 0)
}

func (t *tracer) finish(i int, end time.Time, n int) {
	if t == nil || i < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = int64(end.Sub(t.origin))
	t.spans[i].N = n
}

// durations returns the durations, in ms, of the spans with a name and
// rung.
func (t *tracer) durations(name, rung string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.Rung == rung {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// pairedDiff is the median, over frames and repetitions, of a span's
// duration minus the duration of another span on the same frame (the
// k-th of one against the k-th of the other): the cost one rung adds
// over the next, with the frame-to-frame spread of decode work paired
// out.
func (t *tracer) pairedDiff(nameA, rungA, nameB, rungB string) float64 {
	a, b := map[int64][]time.Duration{}, map[int64][]time.Duration{}
	for _, s := range t.spans {
		switch {
		case s.Name == nameA && s.Rung == rungA:
			a[s.Frame] = append(a[s.Frame], s.dur())
		case s.Name == nameB && s.Rung == rungB:
			b[s.Frame] = append(b[s.Frame], s.dur())
		}
	}
	var diffs []float64
	for f, as := range a {
		for k := 0; k < len(as) && k < len(b[f]); k++ {
			diffs = append(diffs, ms(as[k]-b[f][k]))
		}
	}
	return median(diffs)
}

// selfTimes sums, per span name within a rung, each span's duration
// minus the time its children cover. Children of one parent run one
// after another, so their durations add without overlap.
func (t *tracer) selfTimes(rung string) map[string]time.Duration {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		if s.Rung == rung {
			out[s.Name] += s.dur() - child[i]
		}
	}
	return out
}

// write stores the spans as JSON under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	buf, err := json.Marshal(t.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, buf, 0o644)
}
