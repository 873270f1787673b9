package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"ion/internal/llm"
)

// span is one timed call the benchmark made into a layer. Spans of one
// job share Job; a span's parent is the enclosing span of the same job
// (its children lie inside its interval).
type span struct {
	ID        int       `json:"id"`
	Name      string    `json:"name"`
	Job       string    `json:"job,omitempty"`
	Start     time.Time `json:"start"`
	End       time.Time `json:"end"`
	TokensIn  int       `json:"tokens_in,omitempty"`
	TokensOut int       `json:"tokens_out,omitempty"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// recorder keeps spans in memory; they are written out when the run
// ends.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

func (r *recorder) add(name, job string, start, end time.Time, in, out int) {
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Name: name, Job: job, Start: start, End: end, TokensIn: in, TokensOut: out})
	r.mu.Unlock()
}

// named returns the spans with the given name.
func (r *recorder) named(name string) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

func (r *recorder) writeFile(path string) error {
	r.mu.Lock()
	data, err := json.Marshal(r.spans)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTime is parent's duration minus the part of its interval that
// the children cover (overlapping children count once).
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range children {
		a, b := c.Start, c.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var covered time.Duration
	var curA, curB time.Time
	for i, v := range ivs {
		if i == 0 || v.a.After(curB) {
			covered += curB.Sub(curA)
			curA, curB = v.a, v.b
			continue
		}
		if v.b.After(curB) {
			curB = v.b
		}
	}
	covered += curB.Sub(curA)
	return parent.dur() - covered
}

// tracedClient records an llm.complete span around every completion,
// attributed to the job the analysis context carries.
type tracedClient struct {
	inner llm.Client
	rec   *recorder
}

func (t tracedClient) Complete(ctx context.Context, req llm.Request) (llm.Completion, error) {
	start := time.Now()
	c, err := t.inner.Complete(ctx, req)
	t.rec.add("llm.complete", llm.JobIDFrom(ctx), start, time.Now(), c.Usage.PromptTokens, c.Usage.CompletionTokens)
	return c, err
}

func (t tracedClient) Name() string { return t.inner.Name() }
