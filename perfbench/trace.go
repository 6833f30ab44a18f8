package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one call the benchmark made into a layer, as the span file
// records it. Name is "layer:call"; Parent is the index of the
// enclosing span in the file (-1 for an operation's root, or when the
// parent was not kept) and Op the operation the span belongs to. Times
// are nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int64  `json:"op"`
}

// openSpan is a span between begin and end.
type openSpan struct {
	name   string
	start  int64
	child  int64 // time its ended children covered
	parent int32 // slot of the enclosing open span, -1 for a root
	file   int32 // index in tracer.spans, -1 when not kept
}

// tracer records spans in memory until the run ends. Each layer's self
// time — a span's duration less the part its child spans cover — is
// summed as spans end, so every span counts while only the first
// spanFileCap are kept for the span file. A nil tracer records nothing,
// so untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	now   func() int64 // nanoseconds since t0
	ops   atomic.Int64
	mu    sync.Mutex
	open  []openSpan // slots of open spans; free lists the unused ones
	free  []int32
	spans []span
	self  map[string]time.Duration
	count int
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now(), self: map[string]time.Duration{}}
	t.now = func() int64 { return time.Since(t.t0).Nanoseconds() }
	return t
}

// op returns a fresh operation id (0 when not tracing).
func (t *tracer) op() int64 {
	if t == nil {
		return 0
	}
	return t.ops.Add(1)
}

// begin opens a span under the open span parent (-1 for none) and
// returns its slot (-1 when not tracing).
func (t *tracer) begin(name string, parent int32, op int64) int32 {
	if t == nil {
		return -1
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.count++
	s := openSpan{name: name, start: now, parent: parent, file: -1}
	if len(t.spans) < spanFileCap {
		fileParent := int32(-1)
		if parent >= 0 {
			fileParent = t.open[parent].file
		}
		s.file = int32(len(t.spans))
		t.spans = append(t.spans, span{Name: name, Start: now, Parent: fileParent, Op: op})
	}
	if n := len(t.free); n > 0 {
		slot := t.free[n-1]
		t.free = t.free[:n-1]
		t.open[slot] = s
		return slot
	}
	t.open = append(t.open, s)
	return int32(len(t.open) - 1)
}

// end closes the span begin returned and adds its self time to its
// layer. Children end before their parent.
func (t *tracer) end(slot int32) {
	if t == nil || slot < 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.open[slot]
	dur := now - s.start
	t.self[layerOf(s.name)] += time.Duration(dur - s.child)
	if s.parent >= 0 {
		t.open[s.parent].child += dur
	}
	if s.file >= 0 {
		t.spans[s.file].End = now
	}
	t.free = append(t.free, slot)
}

// clear drops every span recorded so far; no span may be open.
func (t *tracer) clear() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = t.spans[:0]
	t.self = map[string]time.Duration{}
	t.count = 0
}

// layerOf returns the layer part of a span name.
func layerOf(name string) string {
	if i := strings.IndexByte(name, ':'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns each layer's self time over every span recorded.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]time.Duration, len(t.self))
	for l, d := range t.self {
		out[l] = d
	}
	return out
}

// spanCount returns the number of spans recorded.
func (t *tracer) spanCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.count
}

// spanFileCap bounds the spans kept for the span file; self times
// always cover every span of the run.
const spanFileCap = 100_000

// spanFile is the layout of the span file.
type spanFile struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Ops       int64              `json:"ops"`
	SpanCount int                `json:"span_count"`
	SelfUsOp  map[string]float64 `json:"self_us_per_op"`
	SelfShare map[string]float64 `json:"self_share"`
	Spans     []span             `json:"spans"`
}

// write stores the spans and the per-layer self times, once, at the end
// of the run.
func (t *tracer) write(path string, o options, ops int64) error {
	self := t.selfTimes()
	f := spanFile{
		Workload: o.workload, Seed: o.seed, Seconds: o.duration.Seconds(), Ops: ops,
		SelfUsOp: map[string]float64{}, SelfShare: map[string]float64{},
	}
	var total time.Duration
	for _, d := range self {
		total += d
	}
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		f.SelfUsOp[l] = us(self[l]) / float64(ops)
		if total > 0 {
			f.SelfShare[l] = float64(self[l]) / float64(total)
		}
	}
	t.mu.Lock()
	f.SpanCount = t.count
	f.Spans = t.spans
	data, err := json.Marshal(f)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
