package ledger

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ion/internal/journal/journaltest"
	"ion/internal/llm"
	"ion/internal/obs"
	"ion/internal/prompt"
)

func testStore(t *testing.T, opts StoreOptions) *Store {
	t.Helper()
	if opts.Path == "" {
		opts.Path = filepath.Join(t.TempDir(), "ledger.jsonl")
	}
	st, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func entry(id, job, backend string) Entry {
	return Entry{
		ID: id, Job: job, Backend: backend, Model: "m",
		PromptSHA: strings.Repeat("a", 64), TokensIn: 100, TokensOut: 50,
		Outcome: "ok", CostUSD: 0.001, Time: time.Now().UTC(),
	}
}

func TestPriceEstimate(t *testing.T) {
	p := DefaultPrices()
	got := p.Estimate("gpt-4o", 1_000_000, 1_000_000)
	if got != 12.50 {
		t.Fatalf("gpt-4o 1M/1M = %v, want 12.50", got)
	}
	// Unknown models use the "*" fallback.
	if got := p.Estimate("ion-expertsim-1", 1_000_000, 0); got != 0.50 {
		t.Fatalf("fallback estimate = %v, want 0.50", got)
	}
	// No fallback, unknown model: free but accounted.
	if got := (PriceTable{"x": {InPerM: 1}}).Estimate("y", 1000, 1000); got != 0 {
		t.Fatalf("no-fallback estimate = %v, want 0", got)
	}
}

func TestParsePriceTable(t *testing.T) {
	raw := []byte(`{"m1": {"in_per_m": 1, "out_per_m": 2}}`)
	pt, err := ParsePriceTable(raw)
	if err != nil || pt["m1"].OutPerM != 2 {
		t.Fatalf("raw form: %v %+v", err, pt)
	}
	wrapped := []byte(`{"prices": {"m2": {"in_per_m": 3, "out_per_m": 4}}}`)
	pt, err = ParsePriceTable(wrapped)
	if err != nil || pt["m2"].InPerM != 3 {
		t.Fatalf("wrapped form: %v %+v", err, pt)
	}
	for _, bad := range []string{`[]`, `{}`, `{"": {"in_per_m": 1}}`, `{"m": {"in_per_m": -1}}`} {
		if _, err := ParsePriceTable([]byte(bad)); err == nil {
			t.Fatalf("ParsePriceTable(%s) accepted invalid input", bad)
		}
	}
}

func TestStoreAppendAndFilter(t *testing.T) {
	st := testStore(t, StoreOptions{})
	for i := 0; i < 5; i++ {
		job := "job-a"
		backend := "expertsim"
		if i%2 == 1 {
			job, backend = "job-b", "openai"
		}
		if err := st.Append(entry(fmt.Sprintf("e-%d", i), job, backend)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if got := len(st.Entries(Filter{})); got != 5 {
		t.Fatalf("Entries = %d, want 5", got)
	}
	if got := len(st.Entries(Filter{Job: "job-a"})); got != 3 {
		t.Fatalf("job-a entries = %d, want 3", got)
	}
	if got := len(st.Entries(Filter{Backend: "openai"})); got != 2 {
		t.Fatalf("openai entries = %d, want 2", got)
	}
	if got := len(st.Entries(Filter{Limit: 2})); got != 2 {
		t.Fatalf("limited entries = %d, want 2", got)
	}
	// Newest first.
	if st.Entries(Filter{})[0].ID != "e-4" {
		t.Fatalf("Entries not newest-first: %v", st.Entries(Filter{})[0].ID)
	}
	// Tail is oldest first.
	tail := st.Tail(3)
	if len(tail) != 3 || tail[0].ID != "e-2" || tail[2].ID != "e-4" {
		t.Fatalf("Tail order wrong: %+v", tail)
	}
	sum := st.SumJob("job-a")
	if sum.Calls != 3 || sum.TokensIn != 300 || sum.TokensOut != 150 {
		t.Fatalf("SumJob = %+v", sum)
	}
}

func TestStoreRestartReplayAndSupersede(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	st := testStore(t, StoreOptions{Path: path})
	st.Append(entry("e-1", "j1", "b"))
	e2 := entry("e-2", "j1", "b")
	st.Append(e2)
	// Re-journal e-2 with different tokens: the newer record supersedes.
	e2.TokensIn = 999
	st.Append(e2)
	st.Close()

	st2 := testStore(t, StoreOptions{Path: path})
	if st2.Len() != 2 {
		t.Fatalf("after restart Len = %d, want 2 (supersede)", st2.Len())
	}
	got := st2.Entries(Filter{})[0]
	if got.ID != "e-2" || got.TokensIn != 999 {
		t.Fatalf("superseded entry not newest: %+v", got)
	}
	// Lifetime totals are re-seeded from the retained journal: three
	// journaled records replayed.
	if tot := st2.Totals(); tot.Calls != 3 {
		t.Fatalf("replayed Totals.Calls = %d, want 3", tot.Calls)
	}
}

func TestStoreRetention(t *testing.T) {
	st := testStore(t, StoreOptions{MaxEntries: 3})
	for i := 0; i < 10; i++ {
		st.Append(entry(fmt.Sprintf("e-%d", i), "j", "b"))
	}
	if st.Len() != 3 {
		t.Fatalf("count bound: Len = %d, want 3", st.Len())
	}
	if st.Entries(Filter{})[0].ID != "e-9" {
		t.Fatal("count bound evicted the wrong end")
	}
	// Lifetime totals keep what retention dropped.
	tot := st.Totals()
	if tot.Calls != 10 || tot.Evicted != 7 {
		t.Fatalf("Totals = %+v, want Calls 10 Evicted 7", tot)
	}
}

func TestHealthScorer(t *testing.T) {
	h := newHealthScorer()
	now := time.Now()
	// Below the sample floor: perfectly healthy.
	h.observe("b", 0.1, "ok", now)
	snap := h.Snapshot(now)
	if len(snap) != 1 || snap[0].Score != 1 {
		t.Fatalf("below floor: %+v", snap)
	}
	// All errors: score 0.3, below the 0.5 alert threshold.
	for i := 0; i < 20; i++ {
		h.observe("bad", 0.1, "error", now)
	}
	for _, bh := range h.Snapshot(now) {
		if bh.Backend == "bad" {
			if bh.Score >= 0.5 {
				t.Fatalf("all-error backend score = %v, want < 0.5", bh.Score)
			}
			if bh.ErrorRate != 1 {
				t.Fatalf("error rate = %v, want 1", bh.ErrorRate)
			}
		}
	}
	// Healthy traffic stays healthy.
	for i := 0; i < 20; i++ {
		h.observe("good", 0.1, "ok", now)
	}
	for _, bh := range h.Snapshot(now) {
		if bh.Backend == "good" && bh.Score != 1 {
			t.Fatalf("healthy backend score = %v, want 1", bh.Score)
		}
	}
	// Latency regression: baseline 0.1s, recent 1.0s → penalty.
	for i := 0; i < 32; i++ {
		h.observe("slow", 0.1, "ok", now)
	}
	var score float64
	for i := 0; i < 32; i++ {
		score = h.observe("slow", 1.0, "ok", now)
	}
	if score >= 1 || score < 0.7 {
		t.Fatalf("latency-regressed score = %v, want in [0.7, 1)", score)
	}
}

// fakeClient counts calls and returns canned completions or errors.
type fakeClient struct {
	calls int
	fail  error
}

func (f *fakeClient) Name() string { return "fake" }
func (f *fakeClient) Complete(_ context.Context, req llm.Request) (llm.Completion, error) {
	f.calls++
	if f.fail != nil {
		return llm.Completion{}, f.fail
	}
	return llm.Completion{
		Content: "the answer",
		Model:   req.Model,
		Usage:   llm.Usage{PromptTokens: 10, CompletionTokens: 20},
	}, nil
}

func testReq() llm.Request {
	return llm.Request{
		Model:    "gpt-4o",
		Messages: []llm.Message{{Role: llm.RoleUser, Content: "diagnose this"}},
		Metadata: map[string]string{prompt.MetaKind: prompt.KindDiagnosis, prompt.MetaIssue: "random-access"},
	}
}

func TestWrapRecordsEntries(t *testing.T) {
	st := testStore(t, StoreOptions{})
	reg := obs.NewRegistry()
	c := Wrap(&fakeClient{}, st, WrapOptions{Registry: reg})
	if c.Name() != "fake" {
		t.Fatalf("Name = %q, want fake", c.Name())
	}
	ctx := llm.WithAttempt(llm.WithJobID(context.Background(), "job-42"), 2)
	if _, err := c.Complete(ctx, testReq()); err != nil {
		t.Fatalf("Complete: %v", err)
	}
	ents := st.Entries(Filter{})
	if len(ents) != 1 {
		t.Fatalf("entries = %d, want 1", len(ents))
	}
	e := ents[0]
	if e.Job != "job-42" || e.Attempt != 2 {
		t.Fatalf("provenance not recorded: %+v", e)
	}
	if e.Template != "diagnosis" || e.Issue != "random-access" {
		t.Fatalf("template/issue not recorded: %+v", e)
	}
	if e.Backend != "fake" || e.Model != "gpt-4o" || e.Outcome != "ok" {
		t.Fatalf("call identity wrong: %+v", e)
	}
	if e.TokensIn != 10 || e.TokensOut != 20 {
		t.Fatalf("tokens wrong: %+v", e)
	}
	wantCost := DefaultPrices().Estimate("gpt-4o", 10, 20)
	if e.CostUSD != wantCost {
		t.Fatalf("cost = %v, want %v", e.CostUSD, wantCost)
	}
	if len(e.PromptSHA) != 64 {
		t.Fatalf("prompt sha = %q, want 64 hex chars", e.PromptSHA)
	}
	// Default privacy posture: no raw text in the entry.
	if e.PromptText != "" || e.ResponseText != "" {
		t.Fatalf("raw text persisted without capture opt-in: %+v", e)
	}
	// Metrics exported.
	found := map[string]bool{}
	for _, s := range reg.Gather() {
		found[s.Name] = true
	}
	for _, name := range []string{"ion_llm_cost_usd_total", "ion_llm_backend_health", "ion_llm_ledger_entries", "ion_llm_ledger_bytes"} {
		if !found[name] {
			t.Fatalf("metric %s not exported; have %v", name, found)
		}
	}
}

func TestWrapFailureOutcome(t *testing.T) {
	st := testStore(t, StoreOptions{})
	boom := errors.New("backend exploded")
	c := Wrap(&fakeClient{fail: boom}, st, WrapOptions{})
	if _, err := c.Complete(context.Background(), testReq()); !errors.Is(err, boom) {
		t.Fatalf("error not forwarded: %v", err)
	}
	e := st.Entries(Filter{})[0]
	if e.Outcome != "error" || e.Error == "" {
		t.Fatalf("failure entry: %+v", e)
	}
	if e.TokensOut != 0 || e.TokensIn == 0 {
		t.Fatalf("failure tokens: %+v", e)
	}

	// Timeout classification flows through llm.Outcome.
	ct := Wrap(&fakeClient{fail: context.DeadlineExceeded}, st, WrapOptions{})
	ct.Complete(context.Background(), testReq())
	if e := st.Entries(Filter{})[0]; e.Outcome != "timeout" {
		t.Fatalf("timeout entry: %+v", e)
	}
}

func TestWrapCaptureText(t *testing.T) {
	st := testStore(t, StoreOptions{})
	c := Wrap(&fakeClient{}, st, WrapOptions{CaptureText: true})
	c.Complete(context.Background(), testReq())
	e := st.Entries(Filter{})[0]
	if !strings.Contains(e.PromptText, "diagnose this") || e.ResponseText != "the answer" {
		t.Fatalf("capture-text entry: %+v", e)
	}
}

func TestReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ledger.jsonl")
	st, err := Open(StoreOptions{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	rec := Wrap(&fakeClient{}, st, WrapOptions{CaptureText: true})
	req := testReq()
	want, err := rec.Complete(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()

	rep, err := NewReplay(path, nil)
	if err != nil {
		t.Fatalf("NewReplay: %v", err)
	}
	if rep.Len() != 1 {
		t.Fatalf("replay len = %d, want 1", rep.Len())
	}
	got, err := rep.Complete(context.Background(), req)
	if err != nil || got.Content != want.Content || got.Model != want.Model {
		t.Fatalf("replay = %+v, %v; want %+v", got, err, want)
	}
	// Strict mode: an unrecorded prompt is drift, not a silent live call.
	other := testReq()
	other.Messages[0].Content = "something new"
	if _, err := rep.Complete(context.Background(), other); err == nil {
		t.Fatal("replay answered an unrecorded prompt without a fallback")
	}
	// With a fallback, the miss goes live.
	fb := &fakeClient{}
	rep2, _ := NewReplay(path, fb)
	if _, err := rep2.Complete(context.Background(), other); err != nil || fb.calls != 1 {
		t.Fatalf("fallback not used: %v calls=%d", err, fb.calls)
	}
}

func TestReplayErrors(t *testing.T) {
	dir := t.TempDir()
	// Missing file.
	if _, err := NewReplay(filepath.Join(dir, "absent.jsonl"), nil); err == nil {
		t.Fatal("NewReplay accepted a missing file")
	}
	// Hash-only ledger (default privacy posture): nothing to replay.
	path := filepath.Join(dir, "hashonly.jsonl")
	st, _ := Open(StoreOptions{Path: path})
	Wrap(&fakeClient{}, st, WrapOptions{}).Complete(context.Background(), testReq())
	st.Close()
	if _, err := NewReplay(path, nil); err == nil {
		t.Fatal("NewReplay accepted a ledger without captured text")
	}
	// Truncated mid-record line is skipped, rest replays.
	mixed := filepath.Join(dir, "mixed.jsonl")
	good, _ := os.ReadFile(path)
	_ = good
	stm, _ := Open(StoreOptions{Path: mixed})
	Wrap(&fakeClient{}, stm, WrapOptions{CaptureText: true}).Complete(context.Background(), testReq())
	stm.Close()
	f, _ := os.OpenFile(mixed, os.O_WRONLY|os.O_APPEND, 0o644)
	f.WriteString(`{"id":"torn","prompt_sha":"abc","response_text":"x`)
	f.Close()
	rep, err := NewReplay(mixed, nil)
	if err != nil || rep.Len() != 1 {
		t.Fatalf("mixed replay: %v len=%d", err, rep.Len())
	}
}

func TestPromptHashStability(t *testing.T) {
	a := testReq()
	b := testReq()
	// Metadata and files must not affect the hash (they carry
	// workdir-dependent paths).
	b.Metadata["ion-csv-dir"] = "/tmp/elsewhere"
	b.Files = []string{"/tmp/elsewhere/x.csv"}
	if PromptHash(a) != PromptHash(b) {
		t.Fatal("PromptHash varies with metadata/files")
	}
	b.Messages[0].Content += "!"
	if PromptHash(a) == PromptHash(b) {
		t.Fatal("PromptHash ignores message content")
	}
}

// journalStore adapts Store to the journal conformance suite. Record n
// is entry k-n at Base + n minutes; the version is kept in TokensIn.
type journalStore struct{ s *Store }

var journalHarness = journaltest.Harness{Open: func(path string, b journaltest.Bounds) (journaltest.Store, error) {
	s, err := Open(StoreOptions{Path: path, MaxEntries: b.Entries, MaxBytes: b.Bytes, MaxAge: b.Age})
	return journalStore{s}, err
}, Aged: true}

func (a journalStore) Put(n, ver int) error {
	return a.s.Append(Entry{ID: fmt.Sprintf("k-%03d", n), Time: journaltest.Base.Add(time.Duration(n) * time.Minute),
		Job: "j", Template: "diagnosis", PromptSHA: fmt.Sprintf("%064d", n), Backend: "b", Model: "m",
		TokensIn: ver, TokensOut: 5, LatencyMS: 1.5, Outcome: "ok", CostUSD: 0.25})
}
func (a journalStore) Get(n int) (int, bool) {
	for _, e := range a.s.Entries(Filter{}) {
		if e.ID == fmt.Sprintf("k-%03d", n) {
			return e.TokensIn, true
		}
	}
	return 0, false
}
func (a journalStore) Delete(int) error { return nil }
func (a journalStore) Len() int         { return a.s.Len() }
func (a journalStore) Close() error     { return a.s.Close() }
func (a journalStore) Counters() journaltest.Counters {
	t := a.s.Totals()
	return journaltest.Counters{Bytes: t.Bytes, Evicted: t.Evicted, WriteErrors: t.WriteErrors}
}

func TestJournalConformance(t *testing.T) { journaltest.Run(t, journalHarness) }
func TestStoreNilReceiver(t *testing.T)   { journaltest.NilReceiver(t, journalStore{}) }

// Earlier names of suite cases, kept as stable test ids.
func TestStoreTornTail(t *testing.T)   { journaltest.TornTail(t, journalHarness) }
func TestStoreCompaction(t *testing.T) { journaltest.Compaction(t, journalHarness) }
