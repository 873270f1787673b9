package quality

import (
	"fmt"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"ion/internal/drishti"
	"ion/internal/ion"
	"ion/internal/issue"
	"ion/internal/journal/journaltest"
)

func openStore(t *testing.T, opts Options) *Store {
	t.Helper()
	st, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func card(job string, at time.Time, agree bool) Scorecard {
	c := Scorecard{
		JobID:     job,
		Trace:     "trace-" + job,
		Mode:      ModeFull,
		CreatedAt: at,
	}
	s := IssueScore{Issue: issue.SmallIO, Verdict: issue.VerdictDetected, Drishti: agree, Agree: agree}
	if !agree {
		s.Kind = KindLLMOnly
	}
	c.Issues = []IssueScore{s}
	c.Summarize()
	return c
}

func TestStorePutGetSupersede(t *testing.T) {
	st := openStore(t, Options{Path: filepath.Join(t.TempDir(), "q.jsonl")})
	t0 := time.Unix(1719000000, 0).UTC()
	if err := st.Put(card("j-1", t0, true)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := st.Put(card("j-2", t0.Add(time.Second), false)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if st.Len() != 2 {
		t.Fatalf("Len = %d, want 2", st.Len())
	}
	// Superseding j-1 with a shadow result keeps one record per job.
	c, _ := st.Get("j-1")
	c.Shadow = &Shadow{Checked: 9, Flips: []issue.ID{issue.SmallIO}, At: t0.Add(time.Minute)}
	if err := st.Put(c); err != nil {
		t.Fatalf("Put shadow: %v", err)
	}
	if st.Len() != 2 {
		t.Fatalf("Len after supersede = %d, want 2", st.Len())
	}
	got, ok := st.Get("j-1")
	if !ok || got.Shadow == nil || len(got.Shadow.Flips) != 1 {
		t.Fatalf("Get j-1 = %+v, %v; want shadow with one flip", got, ok)
	}
	if ents := st.Entries(); len(ents) != 2 || ents[0].JobID != "j-2" {
		t.Fatalf("Entries = %+v, want j-2 first (newest)", ents)
	}
	if tail := st.Tail(1); len(tail) != 1 || tail[0].JobID != "j-2" {
		t.Fatalf("Tail(1) = %+v", tail)
	}
	if s := st.Stats(); s.Puts != 3 {
		t.Fatalf("Stats = %+v, want 3 puts", s)
	}
}

func TestStoreReplaySupersedeAndTombstone(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.jsonl")
	st := openStore(t, Options{Path: path})
	t0 := time.Unix(1719000000, 0).UTC()
	for _, j := range []string{"j-1", "j-2", "j-3"} {
		if err := st.Put(card(j, t0, false)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	c, _ := st.Get("j-2")
	c.Shadow = &Shadow{Checked: 9, At: t0}
	if err := st.Put(c); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := st.Delete("j-3"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	st.Close()

	st2 := openStore(t, Options{Path: path})
	if st2.Len() != 2 {
		t.Fatalf("replayed Len = %d, want 2", st2.Len())
	}
	if _, ok := st2.Get("j-3"); ok {
		t.Fatal("tombstoned j-3 survived replay")
	}
	if got, ok := st2.Get("j-2"); !ok || got.Shadow == nil {
		t.Fatalf("superseded j-2 lost its shadow on replay: %+v %v", got, ok)
	}
	ag := st2.IssueAgreement()
	if a := ag[issue.SmallIO]; a.Total != 2 || a.LLMOnly != 2 {
		t.Fatalf("IssueAgreement = %+v, want 2 llm_only of 2", a)
	}
	fs := st2.FlipStats()
	if f := fs[ModeFull]; f.Shadowed != 1 || f.Flipped != 0 {
		t.Fatalf("FlipStats = %+v", f)
	}
}

func TestStoreNilReceiver(t *testing.T) {
	var st *Store
	if st.Bytes() != 0 || st.Entries() != nil || st.Tail(5) != nil || st.Stats() != (Stats{}) {
		t.Fatal("nil snapshots not empty")
	}
	if len(st.IssueAgreement()) != 0 || len(st.FlipStats()) != 0 {
		t.Fatal("nil aggregates not empty")
	}
	journaltest.NilReceiver(t, journalStore{})
}

func reportWith(verdicts map[issue.ID]issue.Verdict) *ion.Report {
	rep := &ion.Report{Diagnoses: map[issue.ID]*ion.IssueDiagnosis{}}
	for id, v := range verdicts {
		rep.Diagnoses[id] = &ion.IssueDiagnosis{Issue: id, Verdict: v}
	}
	return rep
}

func TestScore(t *testing.T) {
	rep := reportWith(map[issue.ID]issue.Verdict{
		issue.SmallIO:      issue.VerdictDetected,    // agrees with drishti
		issue.RandomAccess: issue.VerdictDetected,    // llm_only
		issue.Metadata:     issue.VerdictMitigated,   // drishti_only (mitigated ≠ detected)
		issue.SharedFile:   issue.VerdictNotDetected, // agrees (both silent)
	})
	det := &drishti.Report{Insights: []drishti.Insight{
		{Issue: issue.SmallIO, Level: drishti.LevelHigh},
		{Issue: issue.Metadata, Level: drishti.LevelHigh},
		{Issue: issue.RandomAccess, Level: drishti.LevelWarn}, // WARN does not flag
	}}
	labels := []issue.Expectation{{Issue: issue.SmallIO, Want: issue.VerdictDetected}}

	scores := Score(rep, det, labels)
	if len(scores) != len(issue.All) {
		t.Fatalf("Score covers %d issues, want %d", len(scores), len(issue.All))
	}
	byID := map[issue.ID]IssueScore{}
	for _, s := range scores {
		byID[s.Issue] = s
	}
	if s := byID[issue.SmallIO]; !s.Agree || s.Kind != "" || s.Label != issue.VerdictDetected {
		t.Fatalf("small-io = %+v", s)
	}
	if s := byID[issue.RandomAccess]; s.Agree || s.Kind != KindLLMOnly {
		t.Fatalf("random-access = %+v", s)
	}
	if s := byID[issue.Metadata]; s.Agree || s.Kind != KindDrishtiOnly {
		t.Fatalf("metadata = %+v", s)
	}
	if s := byID[issue.SharedFile]; !s.Agree || s.Kind != "" {
		t.Fatalf("shared-file = %+v", s)
	}

	c := Scorecard{JobID: "j-1", Issues: scores}
	c.Summarize()
	if c.Disagreements != 2 {
		t.Fatalf("Disagreements = %d, want 2", c.Disagreements)
	}
	want := float64(len(issue.All)-2) / float64(len(issue.All))
	if c.Agreement != want {
		t.Fatalf("Agreement = %v, want %v", c.Agreement, want)
	}
}

func TestFlips(t *testing.T) {
	served := reportWith(map[issue.ID]issue.Verdict{
		issue.SmallIO:    issue.VerdictDetected,
		issue.SharedFile: issue.VerdictDetected,
	})
	shadow := reportWith(map[issue.ID]issue.Verdict{
		issue.SmallIO: issue.VerdictDetected, // unchanged
		// shared-file absent → not-detected → flip
	})
	flips := Flips(served, shadow)
	if len(flips) != 1 || flips[0] != issue.SharedFile {
		t.Fatalf("Flips = %v, want [shared-file]", flips)
	}
	if f := Flips(served, served); f != nil {
		t.Fatalf("self Flips = %v, want none", f)
	}
}

// journalStore adapts Store to the journal conformance suite. Record n
// is job k-n; the version is kept in Trace.
type journalStore struct{ s *Store }

var journalHarness = journaltest.Harness{Open: func(path string, b journaltest.Bounds) (journaltest.Store, error) {
	s, err := Open(Options{Path: path, MaxEntries: b.Entries, MaxBytes: b.Bytes})
	return journalStore{s}, err
}, Tombstones: true}

func (a journalStore) Put(n, ver int) error {
	c := Scorecard{JobID: fmt.Sprintf("k-%03d", n), Trace: fmt.Sprint(ver), Mode: ModeFull,
		CreatedAt: journaltest.Base.Add(time.Duration(n) * time.Second)}
	c.Issues = []IssueScore{{Issue: issue.SmallIO, Verdict: issue.VerdictDetected, Drishti: n%2 == 0, Agree: n%2 == 0}}
	c.Summarize()
	return a.s.Put(c)
}
func (a journalStore) Get(n int) (int, bool) {
	c, ok := a.s.Get(fmt.Sprintf("k-%03d", n))
	v, _ := strconv.Atoi(c.Trace)
	return v, ok
}
func (a journalStore) Delete(n int) error { return a.s.Delete(fmt.Sprintf("k-%03d", n)) }
func (a journalStore) Len() int           { return a.s.Len() }
func (a journalStore) Close() error       { return a.s.Close() }
func (a journalStore) Counters() journaltest.Counters {
	st := a.s.Stats()
	return journaltest.Counters{Bytes: st.Bytes, Evicted: st.Evictions, WriteErrors: st.WriteErrors}
}

func TestJournalConformance(t *testing.T) { journaltest.Run(t, journalHarness) }

// Earlier names of suite cases, kept as stable test ids.
func TestStoreEviction(t *testing.T)   { journaltest.CountEviction(t, journalHarness) }
func TestStoreCompaction(t *testing.T) { journaltest.Compaction(t, journalHarness) }

func TestStoreTornTailAndGarbage(t *testing.T) {
	journaltest.TornTail(t, journalHarness)
	journaltest.CorruptTail(t, journalHarness)
}
