package obs

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestSpanTreeAssembly exercises the shape the ion pipeline produces: a
// root span with sequential children (extract, summarize) and a fan of
// concurrent diagnose spans started from the same parent context by
// parallel goroutines, as the analyzer does.
func TestSpanTreeAssembly(t *testing.T) {
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)

	rootCtx, root := StartSpan(ctx, "pipeline", L("trace", "ior-hard"))

	ectx, extract := StartSpan(rootCtx, "extract")
	_, mod := StartSpan(ectx, "extract_module", L("module", "POSIX"))
	mod.End()
	extract.End()

	var wg sync.WaitGroup
	for _, issue := range []string{"small-io", "rank0", "needless-sync"} {
		issue := issue
		wg.Add(1)
		go func() {
			defer wg.Done()
			dctx, d := StartSpan(rootCtx, "diagnose", L("issue", issue))
			_, l := StartSpan(dctx, "llm_complete", L("backend", "expertsim"))
			time.Sleep(time.Millisecond)
			l.End()
			d.End()
		}()
	}
	wg.Wait()

	_, sum := StartSpan(rootCtx, "summarize")
	sum.SetError(errors.New("boom"))
	sum.End()
	root.End()

	tl := tr.Timeline()
	if len(tl.Spans) != 10 {
		t.Fatalf("got %d spans, want 10", len(tl.Spans))
	}
	roots := tl.Roots()
	if len(roots) != 1 {
		t.Fatalf("roots = %v, want exactly one", roots)
	}
	rootRec := tl.Spans[0]
	if rootRec.ID != roots[0] || rootRec.Name != "pipeline" || rootRec.Attrs["trace"] != "ior-hard" {
		t.Errorf("first span = %+v, want the pipeline root", rootRec)
	}

	children := tl.Children(roots[0])
	if len(children) != 5 {
		t.Fatalf("root has %d children, want 5 (extract, 3×diagnose, summarize)", len(children))
	}
	if children[0].Name != "extract" {
		t.Errorf("first child = %q, want extract (timeline must be start-ordered)", children[0].Name)
	}
	if last := children[len(children)-1]; last.Name != "summarize" || last.Error != "boom" {
		t.Errorf("last child = %+v, want failed summarize", last)
	}
	seenIssues := map[string]bool{}
	for _, c := range children {
		if c.Name != "diagnose" {
			continue
		}
		seenIssues[c.Attrs["issue"]] = true
		kids := tl.Children(c.ID)
		if len(kids) != 1 || kids[0].Name != "llm_complete" {
			t.Errorf("diagnose %q children = %+v, want one llm_complete", c.Attrs["issue"], kids)
		}
		if kids[0].Seconds <= 0 {
			t.Errorf("llm span under %q has non-positive duration", c.Attrs["issue"])
		}
	}
	if len(seenIssues) != 3 {
		t.Errorf("concurrent diagnose spans recorded %d distinct issues, want 3", len(seenIssues))
	}

	// The root must cover its children: it started first and ended last.
	for _, c := range children {
		if c.Start.Before(rootRec.Start) {
			t.Errorf("child %s starts before the root", c.Name)
		}
	}
	if rootRec.Seconds < children[len(children)-1].Seconds {
		t.Errorf("root duration %v shorter than its last child", rootRec.Seconds)
	}
}

// TestStartSpanWithoutTracer checks the no-op path: library code keeps
// working with an un-instrumented context.
func TestStartSpanWithoutTracer(t *testing.T) {
	ctx, s := StartSpan(context.Background(), "extract")
	if ctx != context.Background() {
		t.Error("no-op StartSpan should return the context unchanged")
	}
	s.Annotate("k", "v")
	s.SetError(errors.New("ignored"))
	s.End() // must not panic
}

func TestObserveStagesAndSummarize(t *testing.T) {
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)
	for i := 0; i < 4; i++ {
		_, s := StartSpan(ctx, "diagnose")
		s.End()
	}
	_, e := StartSpan(ctx, "extract")
	e.End()
	tl := tr.Timeline()

	reg := NewRegistry()
	ObserveStages(reg, tl)
	if n := reg.Histogram("ion_pipeline_stage_seconds", "", nil, L("stage", "diagnose")).Count(); n != 4 {
		t.Errorf("diagnose histogram count = %d, want 4", n)
	}

	stats := Summarize(tl)
	if len(stats) != 2 || stats[0].Stage != "diagnose" || stats[1].Stage != "extract" {
		t.Fatalf("summary = %+v, want [diagnose extract]", stats)
	}
	if stats[0].Count != 4 || stats[0].P50 > stats[0].P99 || stats[0].P99 > stats[0].Max {
		t.Errorf("diagnose stats inconsistent: %+v", stats[0])
	}
}

// TestRecordSpanBeforeParent records a child whose interval precedes
// its parent's start, as the job worker does with the admission-time
// parse: the record keeps its own times, and the timeline still lists
// the parent first.
func TestRecordSpanBeforeParent(t *testing.T) {
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)
	start := time.Now()
	end := start.Add(5 * time.Millisecond)
	time.Sleep(10 * time.Millisecond)
	rctx, root := StartSpan(ctx, "job")
	RecordSpan(rctx, "parse", start, end, L("at", "submit"))
	_, later := StartSpan(rctx, "extract")
	later.End()
	root.End()

	tl := tr.Timeline()
	var names []string
	for _, s := range tl.Spans {
		names = append(names, s.Name)
	}
	if len(names) != 3 || names[0] != "job" || names[1] != "parse" || names[2] != "extract" {
		t.Fatalf("timeline order = %v, want [job parse extract]", names)
	}
	p := tl.Spans[1]
	if !p.Start.Equal(start) || p.Seconds != end.Sub(start).Seconds() || p.Attrs["at"] != "submit" || p.Parent != tl.Spans[0].ID {
		t.Errorf("parse record = %+v, want its own interval under the job span", p)
	}
	RecordSpan(context.Background(), "parse", start, end) // no tracer: no-op
}
