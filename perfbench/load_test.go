package main

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ion/internal/ion"
	"ion/internal/issue"
	"ion/internal/jobs"
)

// An open loop times each request from when it was due, so a stalled
// handler inflates the requests queued behind it, not just its own.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const stall = 300 * time.Millisecond
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
		io.WriteString(w, "ok")
	}))
	defer srv.Close()
	c := newClient(srv.URL, 1, 1, nil)
	defer c.close()

	dues := []time.Duration{0, 50 * time.Millisecond, 100 * time.Millisecond, 150 * time.Millisecond, 600 * time.Millisecond}
	lat := make([]time.Duration, len(dues))
	var wg sync.WaitGroup
	wg.Add(len(dues))
	start := time.Now()
	lags := openLoop(context.Background(), start, dues, func(i int, due time.Time) {
		defer wg.Done()
		resp, err := c.writePool.Post(srv.URL, "text/plain", strings.NewReader("x"))
		if err != nil {
			t.Error(err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		lat[i] = time.Since(due)
	})
	wg.Wait()
	if len(lags) != len(dues) {
		t.Fatalf("fired %d of %d", len(lags), len(dues))
	}
	for i := 1; i < 4; i++ {
		// Queued behind the stall on the single connection: done no
		// earlier than the stall ends, timed from its own due time.
		if want := stall - dues[i] - 20*time.Millisecond; lat[i] < want {
			t.Errorf("request %d: latency %v from due, want >= %v", i, lat[i], want)
		}
	}
	if lat[4] > 100*time.Millisecond {
		t.Errorf("request after the stall: latency %v, want unaffected", lat[4])
	}
}

// A paced loop keeps one request in flight: a send that overruns its
// slot delays the next one, which goes out as soon as it returns and
// reports how late it was; later sends keep their schedule.
func TestPacedLoopOneInFlight(t *testing.T) {
	const overrun = 150 * time.Millisecond
	dues := []time.Duration{0, 50 * time.Millisecond, 400 * time.Millisecond}
	var inFlight atomic.Int32
	sent := make([]time.Duration, len(dues))
	start := time.Now()
	lags := pacedLoop(context.Background(), start, dues, func(i int) {
		if inFlight.Add(1) != 1 {
			t.Errorf("send %d overlaps another", i)
		}
		defer inFlight.Add(-1)
		sent[i] = time.Since(start)
		if i == 0 {
			time.Sleep(overrun)
		}
	})
	if len(lags) != len(dues) {
		t.Fatalf("sent %d of %d", len(lags), len(dues))
	}
	if sent[1] < overrun || lags[1] < overrun-dues[1] {
		t.Errorf("send 1 at %v (lag %v), want after the %v overrun of send 0", sent[1], lags[1], overrun)
	}
	if sent[2] < dues[2] || lags[2] > 100*time.Millisecond {
		t.Errorf("send 2 at %v (lag %v), want on its schedule at %v", sent[2], lags[2], dues[2])
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	parent := span{Start: at(0), End: at(100)}
	children := []span{
		{Start: at(10), End: at(40)},
		{Start: at(30), End: at(50)},  // overlaps the first
		{Start: at(90), End: at(120)}, // runs past the parent
	}
	if got, want := selfTime(parent, children), 50*time.Millisecond; got != want {
		t.Fatalf("self time %v, want %v", got, want)
	}
}

// Full and verbatim reports are held to their own trace's reference;
// only conditioned reports are exempt, and their mismatches counted.
func TestGateChecksOwnTrace(t *testing.T) {
	refOf := func(v issue.Verdict) *reference {
		want := map[issue.ID]issue.Verdict{}
		for _, id := range issue.All {
			want[id] = issue.VerdictNotDetected
		}
		want[issue.All[0]] = v
		return &reference{Verdicts: want}
	}
	refs := map[string]*reference{"a": refOf(issue.VerdictNotDetected), "b": refOf(issue.VerdictDetected)}
	g, err := newGate(refs, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	served := func(v issue.Verdict) *ion.Report {
		return &ion.Report{Diagnoses: map[issue.ID]*ion.IssueDiagnosis{issue.All[0]: {Verdict: v}}}
	}
	result := func(source, id string, v issue.Verdict, reuse *jobs.Reuse) *jobResult {
		return &jobResult{Sub: &submission{Source: source}, JobID: id, OK: true, Report: served(v), Job: jobs.Job{ReusedFrom: reuse}}
	}
	full := result("a", "j-1", issue.VerdictNotDetected, nil)
	if err := g.check([]*jobResult{full}); err != nil {
		t.Fatalf("matching report failed the gate: %v", err)
	}
	if err := g.check([]*jobResult{result("a", "j-2", issue.VerdictDetected, nil)}); err == nil {
		t.Fatal("a full report with a wrong verdict passed the gate")
	}
	// Trace b served verbatim from job j-1 of trace a: right for a,
	// wrong for b.
	hit := result("b", "j-3", issue.VerdictNotDetected, &jobs.Reuse{Mode: jobs.ReuseSemanticHit, From: "j-1"})
	if err := g.check([]*jobResult{hit}); err == nil {
		t.Fatal("a verbatim hit carrying its neighbor's verdicts passed the gate")
	}
	cond := result("b", "j-4", issue.VerdictNotDetected, &jobs.Reuse{Mode: jobs.ReuseConditioned, From: "j-1"})
	if err := g.check([]*jobResult{cond}); err != nil {
		t.Fatalf("a conditioned report failed the gate: %v", err)
	}
	if g.Conditioned != 1 || g.ConditionedMismatches != 1 || g.Checked != 1 {
		t.Fatalf("checked %d, conditioned %d, conditioned mismatches %d; want 1, 1, 1", g.Checked, g.Conditioned, g.ConditionedMismatches)
	}
}

// A 2xx response whose body does not decode is an error that fails
// the run, not a failed job.
func TestUndecodableBodyFailsRun(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			w.WriteHeader(http.StatusAccepted)
		}
		io.WriteString(w, "{not json")
	}))
	defer srv.Close()
	c := newClient(srv.URL, 1, 1, nil)
	defer c.close()
	sub := &submission{Source: "w", Name: "w", Format: formatBinary}
	_, _, subErr := c.submit(sub, strings.NewReader("x"), 1)
	_, repErr := c.report("j-1")
	for what, err := range map[string]error{"202 submit body": subErr, "200 report body": repErr} {
		if !errors.Is(err, errUndecodable) {
			t.Errorf("%s: error %v, want errUndecodable", what, err)
		}
		if undecodable([]*jobResult{{Sub: sub, Err: err}}) == nil {
			t.Errorf("%s: the run would not fail", what)
		}
	}
	if undecodable([]*jobResult{{Sub: sub, Err: errors.New("POST /api/jobs: 429")}}) != nil {
		t.Error("a refused submission failed the run")
	}
}
