// Package journaltest is the conformance suite for stores built on
// internal/journal. A store's tests describe the store with a Harness,
// which drives it through its own public API and configuration (key,
// bounds, validity filter, tombstones), and call each case.
package journaltest

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// Base is the time of record 0; record n's time is Base + n minutes.
var Base = time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)

// Bounds are passed to the store's options as given: 0 keeps the
// store's default, a negative value disables the bound.
type Bounds struct {
	Entries int
	Bytes   int64
	Age     time.Duration
}

// Counters are the store's journal figures.
type Counters struct{ Bytes, Evicted, WriteErrors int64 }

// Store adapts one store. Record n has a key derived from n, the given
// version, which the store round-trips, and time Base + n minutes.
type Store interface {
	Put(n, ver int) error
	Get(n int) (ver int, ok bool)
	Delete(n int) error
	Len() int
	Counters() Counters
	Close() error
}

// Harness opens the store under test.
type Harness struct {
	Open func(path string, b Bounds) (Store, error)
	// Aged and Tombstones report that the store honours Bounds.Age
	// and has Delete; the cases for them are skipped otherwise.
	Aged, Tombstones bool
}

// Run runs every case that applies to the store as a subtest.
// NilReceiver needs a nil store and is called by the store's own test.
func Run(t *testing.T, h Harness) {
	cases := []struct {
		name string
		fn   func(*testing.T, Harness)
	}{
		{"Restart", Restart}, {"TornTail", TornTail}, {"CorruptTail", CorruptTail},
		{"Supersede", Supersede}, {"Tombstone", Tombstone},
		{"CountEviction", CountEviction}, {"ByteEviction", ByteEviction},
		{"AgeEviction", AgeEviction}, {"BoundsReapplyOnLoad", BoundsReapplyOnLoad},
		{"Compaction", Compaction}, {"ParentFormat", ParentFormat},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { c.fn(t, h) })
	}
}

func (h Harness) open(t *testing.T, path string, b Bounds) Store {
	t.Helper()
	st, err := h.Open(path, b)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func put(t *testing.T, st Store, n, ver int) {
	t.Helper()
	if err := st.Put(n, ver); err != nil {
		t.Fatalf("put %d: %v", n, err)
	}
}

func appendRaw(t *testing.T, path, s string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(s); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// want checks the live set is exactly the given records at the given
// versions.
func want(t *testing.T, st Store, live map[int]int) {
	t.Helper()
	if st.Len() != len(live) {
		t.Fatalf("len = %d, want %d", st.Len(), len(live))
	}
	for n, ver := range live {
		if got, ok := st.Get(n); !ok || got != ver {
			t.Fatalf("record %d: version %d ok=%v, want version %d", n, got, ok, ver)
		}
	}
}

// recordLine returns the journal line the store writes for record n.
func (h Harness) recordLine(t *testing.T, n int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "one.jsonl")
	st := h.open(t, path, Bounds{})
	put(t, st, n, 1)
	st.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// Restart: records survive a close and reopen.
func Restart(t *testing.T, h Harness) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	st := h.open(t, path, Bounds{})
	for n := 0; n < 3; n++ {
		put(t, st, n, 1)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	want(t, h.open(t, path, Bounds{}), map[int]int{0: 1, 1: 1, 2: 1})
}

// TornTail: the first record acknowledged after a crash that left an
// unterminated line must not be glued onto the fragment.
func TornTail(t *testing.T, h Harness) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	st := h.open(t, path, Bounds{})
	put(t, st, 1, 1)
	st.Close()
	appendRaw(t, path, `{"job_id":"tor`)
	st = h.open(t, path, Bounds{})
	want(t, st, map[int]int{1: 1})
	put(t, st, 2, 1)
	st.Close()
	want(t, h.open(t, path, Bounds{}), map[int]int{1: 1, 2: 1})
}

// CorruptTail mixes a blank line, garbage, a valid record and a torn
// record into the journal: replay keeps every intact record and the
// store stays appendable.
func CorruptTail(t *testing.T, h Harness) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	st := h.open(t, path, Bounds{})
	for n := 0; n < 3; n++ {
		put(t, st, n, 1)
	}
	st.Close()
	appendRaw(t, path, "\nnot json at all\n"+h.recordLine(t, 7))
	appendRaw(t, path, strings.TrimSuffix(h.recordLine(t, 8), "}\n"))
	st = h.open(t, path, Bounds{})
	want(t, st, map[int]int{0: 1, 1: 1, 2: 1, 7: 1})
	put(t, st, 9, 1)
	st.Close()
	want(t, h.open(t, path, Bounds{}), map[int]int{0: 1, 1: 1, 2: 1, 7: 1, 9: 1})
}

// Supersede: a re-put key replaces its record and becomes the newest,
// so the count bound evicts the untouched record instead.
func Supersede(t *testing.T, h Harness) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	b := Bounds{Entries: 2, Bytes: -1}
	st := h.open(t, path, b)
	put(t, st, 1, 1)
	put(t, st, 2, 1)
	put(t, st, 1, 2)
	want(t, st, map[int]int{1: 2, 2: 1})
	put(t, st, 3, 1)
	want(t, st, map[int]int{1: 2, 3: 1})
	st.Close()
	want(t, h.open(t, path, b), map[int]int{1: 2, 3: 1})
}

// Tombstone: a deleted record stays gone after a restart, and comes
// back when put again.
func Tombstone(t *testing.T, h Harness) {
	if !h.Tombstones {
		t.Skip("store has no tombstones")
	}
	path := filepath.Join(t.TempDir(), "j.jsonl")
	st := h.open(t, path, Bounds{})
	put(t, st, 1, 1)
	put(t, st, 2, 1)
	if err := st.Delete(1); err != nil {
		t.Fatal(err)
	}
	want(t, st, map[int]int{2: 1})
	st.Close()
	st = h.open(t, path, Bounds{})
	want(t, st, map[int]int{2: 1})
	put(t, st, 1, 3)
	st.Close()
	want(t, h.open(t, path, Bounds{}), map[int]int{1: 3, 2: 1})
}

// CountEviction: the count bound keeps the newest records and counts
// the evictions.
func CountEviction(t *testing.T, h Harness) {
	st := h.open(t, filepath.Join(t.TempDir(), "j.jsonl"), Bounds{Entries: 4, Bytes: -1})
	for n := 0; n < 10; n++ {
		put(t, st, n, 1)
	}
	want(t, st, map[int]int{6: 1, 7: 1, 8: 1, 9: 1})
	if c := st.Counters(); c.Evicted != 6 || c.WriteErrors != 0 {
		t.Fatalf("counters = %+v, want 6 evicted and no write errors", c)
	}
}

// ByteEviction: the byte bound keeps the newest records within budget,
// and keeps the newest record even when it alone exceeds the bound.
func ByteEviction(t *testing.T, h Harness) {
	one := h.open(t, filepath.Join(t.TempDir(), "one.jsonl"), Bounds{})
	put(t, one, 0, 1)
	per := one.Counters().Bytes
	if per <= 0 {
		t.Fatalf("one record retains %d bytes", per)
	}
	st := h.open(t, filepath.Join(t.TempDir(), "j.jsonl"), Bounds{Entries: -1, Bytes: 3 * per})
	for n := 0; n < 10; n++ {
		put(t, st, n, 1)
	}
	if b := st.Counters().Bytes; b > 3*per {
		t.Fatalf("retains %d bytes over the %d budget", b, 3*per)
	}
	want(t, st, map[int]int{7: 1, 8: 1, 9: 1})

	tiny := h.open(t, filepath.Join(t.TempDir(), "tiny.jsonl"), Bounds{Entries: -1, Bytes: per / 2})
	put(t, tiny, 0, 1)
	put(t, tiny, 1, 1)
	want(t, tiny, map[int]int{1: 1})
}

// AgeEviction: the age bound is measured against the time of the
// record just put, not the wall clock.
func AgeEviction(t *testing.T, h Harness) {
	if !h.Aged {
		t.Skip("store has no age bound")
	}
	st := h.open(t, filepath.Join(t.TempDir(), "j.jsonl"), Bounds{Entries: -1, Bytes: -1, Age: 10 * time.Minute})
	for n := 0; n < 5; n++ {
		put(t, st, n, 1)
	}
	want(t, st, map[int]int{0: 1, 1: 1, 2: 1, 3: 1, 4: 1})
	put(t, st, 100, 1)
	want(t, st, map[int]int{100: 1})
	if c := st.Counters(); c.Evicted != 5 {
		t.Fatalf("evicted = %d, want 5", c.Evicted)
	}
}

// BoundsReapplyOnLoad: a reopen with tighter bounds keeps the newest.
func BoundsReapplyOnLoad(t *testing.T, h Harness) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	st := h.open(t, path, Bounds{Entries: -1, Bytes: -1})
	for n := 0; n < 8; n++ {
		put(t, st, n, 1)
	}
	st.Close()
	want(t, h.open(t, path, Bounds{Entries: 2}), map[int]int{6: 1, 7: 1})
}

// Compaction: once dead lines outnumber live records the journal is
// rewritten to the live set, which replays unchanged.
func Compaction(t *testing.T, h Harness) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	b := Bounds{Entries: 4, Bytes: -1}
	st := h.open(t, path, b)
	for round := 0; round < 40; round++ {
		for n := 0; n < 4; n++ {
			put(t, st, n, round)
		}
	}
	st.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(data, []byte{'\n'}); lines > 2*4+16 {
		t.Fatalf("journal holds %d lines after 160 puts of 4 records; compaction did not run", lines)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
	want(t, h.open(t, path, b), map[int]int{0: 39, 1: 39, 2: 39, 3: 39})
}

// NilReceiver: st wraps a nil store, which accepts writes as no-ops and
// reports no state.
func NilReceiver(t *testing.T, st Store) {
	if err := st.Put(1, 1); err != nil {
		t.Fatalf("nil put: %v", err)
	}
	if err := st.Delete(1); err != nil {
		t.Fatalf("nil delete: %v", err)
	}
	if _, ok := st.Get(1); ok {
		t.Fatal("nil store returned a record")
	}
	if st.Len() != 0 || st.Counters() != (Counters{}) {
		t.Fatal("nil store reports state")
	}
	if err := st.Close(); err != nil {
		t.Fatalf("nil close: %v", err)
	}
}

// ParentFormat replays testdata/parent-journal.in.jsonl, a journal
// the previous store implementation wrote (supersedes, tombstones,
// records the store filters out, garbage, a torn tail and enough dead
// lines that the next put compacts), puts record 99 and closes. The
// result must equal testdata/parent-journal.want.jsonl, what that
// implementation wrote for the same steps: the same live set, in the
// same recency order, in the same format.
func ParentFormat(t *testing.T, h Harness) {
	in, err := os.ReadFile(filepath.Join("testdata", "parent-journal.in.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, err := os.ReadFile(filepath.Join("testdata", "parent-journal.want.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "j.jsonl")
	if err := os.WriteFile(path, in, 0o644); err != nil {
		t.Fatal(err)
	}
	st := h.open(t, path, Bounds{})
	put(t, st, 99, 1)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantBytes) {
		t.Fatalf("journal after replay, put and close differs from the previous implementation's:\ngot:\n%s\nwant:\n%s", got, wantBytes)
	}
}
