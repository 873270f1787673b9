package prof

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"ion/internal/journal/journaltest"
)

func testWindow(kind string, n int, at time.Time) Window {
	return Window{
		ID:    fmt.Sprintf("w-%s-%d", kind, n),
		Kind:  kind,
		Start: at.Add(-10 * time.Second),
		End:   at,
		Unit:  "nanoseconds",
		Total: int64(1000 + n),
		Functions: []FuncStat{
			{Name: "main.work", Flat: 800, Cum: 900, FlatShare: 0.8, CumShare: 0.9},
			{Name: "main.idle", Flat: 200, Cum: 1000, FlatShare: 0.2, CumShare: 1.0},
		},
		Stacks:    []Stack{{Frames: []string{"main.main", "main.work"}, Value: 800}},
		KeptValue: 800,
	}
}

func openTestStore(t *testing.T, dir string, opts StoreOptions) *Store {
	t.Helper()
	if opts.Path == "" {
		opts.Path = filepath.Join(dir, "windows.jsonl")
	}
	st, err := OpenStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func TestStorePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	base := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	st := openTestStore(t, dir, StoreOptions{})
	for i := 0; i < 5; i++ {
		if err := st.Add(testWindow("cpu", i, base.Add(time.Duration(i)*time.Minute))); err != nil {
			t.Fatal(err)
		}
	}
	st.Add(testWindow("heap", 0, base))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openTestStore(t, dir, StoreOptions{})
	if st2.Len() != 6 {
		t.Fatalf("replayed %d windows, want 6", st2.Len())
	}
	cpu := st2.Windows("cpu", 0)
	if len(cpu) != 5 {
		t.Fatalf("cpu windows = %d, want 5", len(cpu))
	}
	// Newest first.
	if cpu[0].ID != "w-cpu-4" || cpu[4].ID != "w-cpu-0" {
		t.Fatalf("order wrong: first=%s last=%s", cpu[0].ID, cpu[4].ID)
	}
	w, ok := st2.Get("w-cpu-2")
	if !ok || w.Total != 1002 || len(w.Functions) != 2 || w.Functions[0].Name != "main.work" {
		t.Fatalf("Get(w-cpu-2) = %+v ok=%v", w, ok)
	}
	if w.Stacks[0].Frames[0] != "main.main" {
		t.Fatalf("stack frames lost: %+v", w.Stacks)
	}
	if latest, ok := st2.Latest("heap"); !ok || latest.ID != "w-heap-0" {
		t.Fatalf("Latest(heap) = %+v ok=%v", latest, ok)
	}
}

func TestStoreNilSafe(t *testing.T) {
	var st *Store
	if st.Evicted() != 0 || st.WriteErrors() != 0 {
		t.Fatal("nil store not empty")
	}
	if ws := st.Windows("", 0); ws != nil {
		t.Fatal("nil store returned windows")
	}
	if _, ok := st.Latest("cpu"); ok {
		t.Fatal("nil store Latest ok")
	}
	journaltest.NilReceiver(t, journalStore{})
}

// journalStore adapts Store to the journal conformance suite. Record n
// is CPU window k-n ending at Base + n minutes; the version is kept in
// Total.
type journalStore struct{ s *Store }

var journalHarness = journaltest.Harness{Open: func(path string, b journaltest.Bounds) (journaltest.Store, error) {
	s, err := OpenStore(StoreOptions{Path: path, MaxWindows: b.Entries, MaxBytes: b.Bytes, Retention: b.Age})
	return journalStore{s}, err
}, Aged: true}

func (a journalStore) Put(n, ver int) error {
	at := journaltest.Base.Add(time.Duration(n) * time.Minute)
	return a.s.Add(Window{ID: fmt.Sprintf("k-%03d", n), Kind: "cpu", Start: at.Add(-10 * time.Second), End: at,
		Unit: "nanoseconds", Total: int64(ver),
		Functions: []FuncStat{{Name: "main.work", Flat: 8, Cum: 9, FlatShare: 0.8, CumShare: 0.9}},
		Stacks:    []Stack{{Frames: []string{"main.main", "main.work"}, Value: 8}}, KeptValue: 8})
}
func (a journalStore) Get(n int) (int, bool) {
	w, ok := a.s.Get(fmt.Sprintf("k-%03d", n))
	return int(w.Total), ok
}
func (a journalStore) Delete(int) error { return nil }
func (a journalStore) Len() int         { return a.s.Len() }
func (a journalStore) Close() error     { return a.s.Close() }
func (a journalStore) Counters() journaltest.Counters {
	return journaltest.Counters{Bytes: a.s.Bytes(), Evicted: a.s.Evicted(), WriteErrors: a.s.WriteErrors()}
}

func TestJournalConformance(t *testing.T) { journaltest.Run(t, journalHarness) }

// Earlier names of suite cases, kept as stable test ids.
func TestStoreSupersedeByID(t *testing.T) { journaltest.Supersede(t, journalHarness) }
func TestStoreByteBound(t *testing.T)     { journaltest.ByteEviction(t, journalHarness) }
func TestStoreCompaction(t *testing.T)    { journaltest.Compaction(t, journalHarness) }

// TestStoreCountAndAgeEviction: the age bound is clocked off the End of
// the window just added.
func TestStoreCountAndAgeEviction(t *testing.T) {
	journaltest.CountEviction(t, journalHarness)
	journaltest.AgeEviction(t, journalHarness)
}

func TestStoreTornTailReplay(t *testing.T) {
	journaltest.TornTail(t, journalHarness)
	journaltest.CorruptTail(t, journalHarness)
}
