package semcache

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"ion/internal/journal/journaltest"
)

func testStore(t *testing.T, opts Options) *Store {
	t.Helper()
	if opts.Path == "" {
		opts.Path = filepath.Join(t.TempDir(), "semcache.jsonl")
	}
	st, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func sigN(seed int) Signature {
	s := make(Signature, len(Dimensions()))
	for i := range s {
		s[i] = float64((seed+i*7)%32) / 32
	}
	return s
}

func entryN(n int) Entry {
	return Entry{
		JobID:     fmt.Sprintf("j-%012d", n),
		TraceHash: fmt.Sprintf("hash-%d", n),
		Trace:     fmt.Sprintf("trace-%d", n),
		Signature: sigN(n),
		Issues:    []string{"small-io"},
		Outcome:   "full",
		CreatedAt: time.Unix(int64(1700000000+n), 0).UTC(),
	}
}

func TestStorePutLookup(t *testing.T) {
	st := testStore(t, Options{})
	for i := 0; i < 5; i++ {
		if err := st.Put(entryN(i)); err != nil {
			t.Fatal(err)
		}
	}
	m, ok := st.Lookup(sigN(3))
	if !ok {
		t.Fatal("Lookup returned no match")
	}
	if m.Entry.JobID != "j-000000000003" {
		t.Fatalf("nearest neighbor = %s (sim %.3f), want j-000000000003", m.Entry.JobID, m.Similarity)
	}
	if m.Similarity != 1 {
		t.Fatalf("identical signature similarity = %v, want 1", m.Similarity)
	}
	if len(m.Deltas) != 0 {
		t.Fatalf("identical signature has deltas: %v", m.Deltas)
	}
}

func TestStoreReplacesSameTraceHash(t *testing.T) {
	path := filepath.Join(t.TempDir(), "semcache.jsonl")
	st := testStore(t, Options{Path: path})
	e := entryN(1)
	if err := st.Put(e); err != nil {
		t.Fatal(err)
	}
	e2 := entryN(1)
	e2.JobID = "j-000000000099"
	if err := st.Put(e2); err != nil {
		t.Fatal(err)
	}
	if got := st.Len(); got != 1 {
		t.Fatalf("same-hash re-put left %d entries, want 1", got)
	}
	m, _ := st.Lookup(sigN(1))
	if m.Entry.JobID != "j-000000000099" {
		t.Fatalf("lookup returned %s, want the superseding job", m.Entry.JobID)
	}
	// Replay applies the same supersede: the journal holds both lines.
	st.Close()
	st = testStore(t, Options{Path: path})
	if got := st.Len(); got != 1 {
		t.Fatalf("after restart, same-hash re-put left %d entries, want 1", got)
	}
	if m, ok := st.Lookup(sigN(1)); !ok || m.Entry.JobID != "j-000000000099" {
		t.Fatalf("after restart, lookup = %+v ok=%v, want the superseding job", m, ok)
	}
}

// TestStoreSigVersionGating: entries journaled under another signature
// schema are dropped on load.
func TestStoreSigVersionGating(t *testing.T) {
	path := filepath.Join(t.TempDir(), "semcache.jsonl")
	st := testStore(t, Options{Path: path})
	if err := st.Put(entryN(1)); err != nil {
		t.Fatal(err)
	}
	st.Close()
	stale, err := json.Marshal(Entry{SigVersion: Version + 1, JobID: "j-stale", TraceHash: "h-stale", Signature: sigN(2)})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(append(stale, '\n'))
	f.Close()
	st = testStore(t, Options{Path: path})
	if ents := st.Entries(); len(ents) != 1 || ents[0].JobID != "j-000000000001" {
		t.Fatalf("entries after reload = %+v, want only the current-version entry", ents)
	}
}

func TestStoreCountEviction(t *testing.T) {
	st := testStore(t, Options{MaxEntries: 4, MaxBytes: -1})
	for i := 0; i < 10; i++ {
		if err := st.Put(entryN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := st.Len(); got != 4 {
		t.Fatalf("store holds %d entries, want 4", got)
	}
	if _, ok := st.Lookup(nil); !ok {
		t.Fatal("bounded store should still answer lookups")
	}
	if st.Stats().Evictions != 6 {
		t.Fatalf("evictions = %d, want 6", st.Stats().Evictions)
	}
}

// TestStoreFailedPutKeepsSameHashEntry: a Put that cannot be journaled
// (here, a time JSON cannot encode) leaves the entry it would have
// superseded by trace hash live.
func TestStoreFailedPutKeepsSameHashEntry(t *testing.T) {
	st := testStore(t, Options{})
	if err := st.Put(entryN(1)); err != nil {
		t.Fatal(err)
	}
	e := entryN(1)
	e.JobID = "j-000000000099"
	e.CreatedAt = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)
	if err := st.Put(e); err == nil {
		t.Fatal("Put of an unencodable entry succeeded")
	}
	if m, ok := st.Lookup(sigN(1)); !ok || m.Entry.JobID != "j-000000000001" || st.Len() != 1 {
		t.Fatalf("after a failed Put, lookup = %+v ok=%v len=%d, want the earlier entry alone", m.Entry, ok, st.Len())
	}
}

func TestStoreNilReceiver(t *testing.T) {
	var st *Store
	if _, ok := st.Lookup(sigN(1)); ok {
		t.Fatal("nil store answered a lookup")
	}
	st.Note(OutcomeHit)
	if st.Bytes() != 0 || st.Entries() != nil || st.Stats() != (Stats{}) {
		t.Fatal("nil store reports state")
	}
	journaltest.NilReceiver(t, journalStore{})
}

func TestStoreConcurrentAccess(t *testing.T) {
	st := testStore(t, Options{MaxEntries: 16})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				n := w*50 + i
				if err := st.Put(entryN(n)); err != nil {
					t.Error(err)
					return
				}
				st.Lookup(sigN(n))
				st.Note(OutcomeMiss)
				st.Stats()
			}
		}()
	}
	wg.Wait()
	if st.Len() > 16 {
		t.Fatalf("concurrent puts breached the bound: %d entries", st.Len())
	}
}

func TestFlipFeedbackDownWeightsDimensions(t *testing.T) {
	st := testStore(t, Options{})
	base := make(Signature, len(Dimensions()))
	for i := range base {
		base[i] = 0.5
	}
	e := Entry{JobID: "j-base", TraceHash: "h", Trace: "t", Signature: base, CreatedAt: time.Unix(1700000000, 0)}
	if err := st.Put(e); err != nil {
		t.Fatal(err)
	}

	// A query diverging along one dimension.
	q := append(Signature(nil), base...)
	dim := Dimensions()[0]
	q[0] = 0.75

	before, ok := st.Lookup(q)
	if !ok {
		t.Fatal("no match")
	}
	if before.Deltas[dim] == 0 {
		t.Fatalf("expected a delta on %s, got %v", dim, before.Deltas)
	}

	// Report flips along that dimension until its weight floors.
	for i := 0; i < 10; i++ {
		st.FlipFeedback(before.Deltas)
	}
	w := st.DimensionWeights()
	if w[dim] != 0.2 {
		t.Fatalf("weight[%s] = %v, want floor 0.2", dim, w[dim])
	}
	for _, name := range Dimensions()[1:] {
		if w[name] != 1 {
			t.Fatalf("weight[%s] = %v, want untouched 1", name, w[name])
		}
	}

	after, ok := st.Lookup(q)
	if !ok {
		t.Fatal("no match after feedback")
	}
	if after.Similarity >= before.Similarity {
		t.Fatalf("similarity %v not reduced from %v by flip feedback", after.Similarity, before.Similarity)
	}
	// Divergence-free lookups are unaffected.
	exact, _ := st.Lookup(base)
	if exact.Similarity != 1 {
		t.Fatalf("exact match similarity = %v, want 1", exact.Similarity)
	}

	// Nil store: feedback is a no-op, weights read as fully trusted.
	var nilStore *Store
	nilStore.FlipFeedback(before.Deltas)
	if w := nilStore.DimensionWeights(); w[dim] != 1 {
		t.Fatalf("nil store weight = %v, want 1", w[dim])
	}
}

// journalStore adapts Store to the journal conformance suite. Record n
// is job k-n with trace hash h-n; the version is kept in Trace.
type journalStore struct{ s *Store }

var journalHarness = journaltest.Harness{Open: func(path string, b journaltest.Bounds) (journaltest.Store, error) {
	s, err := Open(Options{Path: path, MaxEntries: b.Entries, MaxBytes: b.Bytes})
	return journalStore{s}, err
}, Tombstones: true}

func journalEntry(n, ver int) Entry {
	sig := make(Signature, len(Dimensions()))
	for i := range sig {
		sig[i] = float64((n*7+i*3)%32)/32 + 0.01
	}
	return Entry{JobID: fmt.Sprintf("k-%03d", n), TraceHash: fmt.Sprintf("h-%03d", n), Trace: fmt.Sprint(ver),
		Signature: sig, Issues: []string{"small-io"}, Outcome: "full", CreatedAt: journaltest.Base.Add(time.Duration(n) * time.Second)}
}

func (a journalStore) Put(n, ver int) error { return a.s.Put(journalEntry(n, ver)) }
func (a journalStore) Get(n int) (int, bool) {
	for _, e := range a.s.Entries() {
		if e.JobID == fmt.Sprintf("k-%03d", n) {
			v, _ := strconv.Atoi(e.Trace)
			return v, true
		}
	}
	return 0, false
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
func TestStoreSurvivesRestart(t *testing.T)     { journaltest.Restart(t, journalHarness) }
func TestStoreCorruptTailIgnored(t *testing.T)  { journaltest.CorruptTail(t, journalHarness) }
func TestStoreDeleteTombstone(t *testing.T)     { journaltest.Tombstone(t, journalHarness) }
func TestStoreByteEviction(t *testing.T)        { journaltest.ByteEviction(t, journalHarness) }
func TestStoreBoundsReapplyOnLoad(t *testing.T) { journaltest.BoundsReapplyOnLoad(t, journalHarness) }
func TestStoreCompaction(t *testing.T)          { journaltest.Compaction(t, journalHarness) }
