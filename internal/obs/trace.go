package obs

import (
	"context"
	"sort"
	"sync"
	"time"
)

type ctxKey int

const (
	tracerKey ctxKey = iota
	spanKey
	loggerKey
)

// Tracer collects spans for one pipeline run. It is safe for
// concurrent use: the parallel analyzer starts sibling spans from many
// goroutines. A Tracer travels in a context.Context (WithTracer), and
// instrumented code starts spans through StartSpan, which is a cheap
// no-op when no tracer is installed — so library code is always
// instrumented and the caller decides per run whether to trace.
type Tracer struct {
	mu     sync.Mutex
	spans  []*Span
	nextID int
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// WithTracer installs the tracer into the context.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	return context.WithValue(ctx, tracerKey, t)
}

// TracerFrom returns the context's tracer, or nil.
func TracerFrom(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey).(*Tracer)
	return t
}

// StartSpan begins a span named name under the context's current span
// and returns a derived context carrying the new span as parent for
// its children. Without a tracer in ctx it returns ctx and a no-op
// span, so call sites never nil-check. The caller must End the span.
func StartSpan(ctx context.Context, name string, attrs ...Label) (context.Context, *Span) {
	t := TracerFrom(ctx)
	if t == nil {
		return ctx, &Span{}
	}
	parent := 0
	if p, _ := ctx.Value(spanKey).(*Span); p != nil {
		parent = p.id
	}
	t.mu.Lock()
	t.nextID++
	s := &Span{t: t, id: t.nextID, parent: parent, name: name, start: time.Now(), attrs: attrs}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return context.WithValue(ctx, spanKey, s), s
}

// RecordSpan adds an already finished span named name, with the given
// start and end, under the context's current span: work done for this
// run before its span tree existed, such as a parse at admission time.
// Without a tracer in ctx it does nothing.
func RecordSpan(ctx context.Context, name string, start, end time.Time, attrs ...Label) {
	_, s := StartSpan(ctx, name, attrs...)
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	s.start, s.end = start, end
	s.t.mu.Unlock()
}

// Span is one timed operation. The zero Span is a valid no-op.
type Span struct {
	t          *Tracer
	id, parent int
	name       string
	start, end time.Time
	attrs      []Label
	errMsg     string
}

// End marks the span finished. Calling End twice keeps the first time.
func (s *Span) End() {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.t.mu.Unlock()
}

// SetError records a failure on the span; nil is ignored.
func (s *Span) SetError(err error) {
	if s.t == nil || err == nil {
		return
	}
	s.t.mu.Lock()
	s.errMsg = err.Error()
	s.t.mu.Unlock()
}

// Annotate attaches an attribute to the span after creation.
func (s *Span) Annotate(key, value string) {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	s.attrs = append(s.attrs, Label{Key: key, Value: value})
	s.t.mu.Unlock()
}

// SpanRecord is the exported form of one span in a timeline.
type SpanRecord struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent,omitempty"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	// Seconds is the span duration; open spans report the time elapsed
	// so far.
	Seconds float64           `json:"seconds"`
	Attrs   map[string]string `json:"attrs,omitempty"`
	Error   string            `json:"error,omitempty"`
}

// Timeline is a JSON-serializable snapshot of one traced run: the span
// tree, ordered by start time (ties break by id). A parent always
// precedes its children: a span recorded with a start before its
// parent's (RecordSpan) is placed as if it started with the parent.
type Timeline struct {
	Trace string       `json:"trace,omitempty"`
	Spans []SpanRecord `json:"spans"`
}

// Timeline snapshots the tracer. It may be called while spans are
// still being recorded; open spans report elapsed time and no end.
func (t *Tracer) Timeline() Timeline {
	now := time.Now()
	t.mu.Lock()
	recs := make([]SpanRecord, 0, len(t.spans))
	// Span ids run 1..n in creation order, parents first, so one pass
	// settles every span's ordering time: its start, or its parent's
	// ordering time if that is later. (A parent id not below the span's
	// own came from another tracer's context and is ignored.)
	order := make([]time.Time, len(t.spans)+1)
	for _, s := range t.spans {
		order[s.id] = s.start
		if s.parent > 0 && s.parent < s.id && order[s.parent].After(s.start) {
			order[s.id] = order[s.parent]
		}
		end := s.end
		if end.IsZero() {
			end = now
		}
		r := SpanRecord{
			ID:      s.id,
			Parent:  s.parent,
			Name:    s.name,
			Start:   s.start,
			Seconds: end.Sub(s.start).Seconds(),
			Error:   s.errMsg,
		}
		if len(s.attrs) > 0 {
			r.Attrs = make(map[string]string, len(s.attrs))
			for _, a := range s.attrs {
				r.Attrs[a.Key] = a.Value
			}
		}
		recs = append(recs, r)
	}
	t.mu.Unlock()
	sort.Slice(recs, func(i, j int) bool {
		a, b := order[recs[i].ID], order[recs[j].ID]
		if !a.Equal(b) {
			return a.Before(b)
		}
		return recs[i].ID < recs[j].ID
	})
	return Timeline{Spans: recs}
}

// Roots returns the ids of spans with no parent, in timeline order.
func (tl Timeline) Roots() []int {
	var out []int
	for _, r := range tl.Spans {
		if r.Parent == 0 {
			out = append(out, r.ID)
		}
	}
	return out
}

// Children returns the records parented by id, in timeline order.
func (tl Timeline) Children(id int) []SpanRecord {
	var out []SpanRecord
	for _, r := range tl.Spans {
		if r.Parent == id {
			out = append(out, r)
		}
	}
	return out
}

// ObserveStages folds a timeline into the registry's
// ion_pipeline_stage_seconds histogram, one series per span name. Span
// names are the bounded stage vocabulary (parse, extract, diagnose,
// llm_complete, summarize, …); high-cardinality detail lives in span
// attributes, which are not exported as labels. When the timeline
// carries a trace id, each observation records it as the bucket's
// exemplar, so quantile queries can name the job behind the number.
func ObserveStages(reg *Registry, tl Timeline) {
	for _, r := range tl.Spans {
		h := reg.Histogram("ion_pipeline_stage_seconds",
			"Latency of each ION pipeline stage, labeled by span name.",
			nil, L("stage", r.Name))
		if tl.Trace != "" {
			h.ObserveExemplar(r.Seconds, tl.Trace)
		} else {
			h.Observe(r.Seconds)
		}
	}
}

// StageStat summarizes one stage's latency distribution.
type StageStat struct {
	Stage              string
	Count              int
	TotalSeconds       float64
	P50, P95, P99, Max float64
}

// Summarize computes per-stage latency statistics (exact nearest-rank
// percentiles) from a timeline, sorted by stage name for stable
// output. ionbench prints this after a run so the evaluation artifacts
// can track per-stage latency, not just end-to-end time.
func Summarize(tl Timeline) []StageStat {
	byStage := map[string][]float64{}
	for _, r := range tl.Spans {
		byStage[r.Name] = append(byStage[r.Name], r.Seconds)
	}
	names := make([]string, 0, len(byStage))
	for n := range byStage {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]StageStat, 0, len(names))
	for _, n := range names {
		ds := byStage[n]
		sort.Float64s(ds)
		st := StageStat{Stage: n, Count: len(ds), Max: ds[len(ds)-1]}
		for _, d := range ds {
			st.TotalSeconds += d
		}
		st.P50 = percentile(ds, 0.50)
		st.P95 = percentile(ds, 0.95)
		st.P99 = percentile(ds, 0.99)
		out = append(out, st)
	}
	return out
}

// percentile returns the nearest-rank percentile of sorted ds.
func percentile(ds []float64, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	i := int(q*float64(len(ds)) + 0.5)
	if i < 1 {
		i = 1
	}
	if i > len(ds) {
		i = len(ds)
	}
	return ds[i-1]
}
