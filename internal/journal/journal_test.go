package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

type rec struct {
	K   string `json:"k"`
	V   string `json:"v,omitempty"`
	Del bool   `json:"del,omitempty"`
}

func testConfig(path string) Config[rec] {
	return Config[rec]{
		Path:       path,
		Key:        func(r rec) string { return r.K },
		Valid:      func(r rec) bool { return r.K != "" },
		Deleted:    func(r rec) bool { return r.Del },
		Tombstone:  func(k string) rec { return rec{K: k, Del: true} },
		Size:       func(r rec) int64 { return int64(len(r.K)+len(r.V)) + 16 },
		MaxEntries: 64,
		MaxBytes:   4 << 10,
	}
}

func openT(t testing.TB, cfg Config[rec]) *Journal[rec] {
	t.Helper()
	j, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

// live returns the live records, most recent first.
func live(j *Journal[rec]) []rec {
	var out []rec
	j.Each(func(r rec) bool {
		out = append(out, r)
		return true
	})
	return out
}

func keys(rs []rec) string {
	ks := make([]string, len(rs))
	for i, r := range rs {
		ks[i] = r.K
	}
	return strings.Join(ks, ",")
}

// TestRecencyOrderSurvivesCompaction: Touch reorders the live set, and
// compaction writes that order, so replay rebuilds it.
func TestRecencyOrderSurvivesCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j := openT(t, testConfig(path))
	for _, k := range []string{"a", "b", "c"} {
		if err := j.Put(rec{K: k}); err != nil {
			t.Fatal(err)
		}
	}
	j.Touch("a")
	if got := keys(live(j)); got != "a,c,b" {
		t.Fatalf("order after Touch = %s, want a,c,b", got)
	}
	// Superseding puts of c push the journal past 2·live+16 lines.
	for i := 0; i < 20; i++ {
		if err := j.Put(rec{K: "c", V: fmt.Sprint(i)}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	data, _ := os.ReadFile(path)
	if n := strings.Count(string(data), "\n"); n != 3 {
		t.Fatalf("compacted journal has %d lines, want 3:\n%s", n, data)
	}
	if got := keys(live(openT(t, testConfig(path)))); got != "c,a,b" {
		t.Fatalf("replayed order = %s, want c,a,b", got)
	}
}

// TestPutsDuringPausedCompactionSurvive holds a compaction after it has
// written its snapshot: puts and deletes meanwhile must all be in the
// journal it renames into place.
func TestPutsDuringPausedCompactionSurvive(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j := openT(t, testConfig(path))
	paused, release := make(chan struct{}), make(chan struct{})
	j.compactPause = func() {
		close(paused)
		<-release
	}
	for i := 0; i < 4; i++ {
		if err := j.Put(rec{K: fmt.Sprint("k", i)}); err != nil {
			t.Fatal(err)
		}
	}
	// The 21st superseding put of k0 brings the journal to 25 lines,
	// past 2·4+16, and starts a compaction, which the pause holds.
	for i := 0; i < 21; i++ {
		if err := j.Put(rec{K: "k0", V: fmt.Sprint(i)}); err != nil {
			t.Fatal(err)
		}
	}
	<-paused
	for i := 4; i < 10; i++ {
		if err := j.Put(rec{K: fmt.Sprint("k", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Put(rec{K: "k1", V: "late"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Delete("k2"); err != nil {
		t.Fatal(err)
	}
	close(release)
	wantLive := live(j)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
	data, _ := os.ReadFile(path)
	if n := strings.Count(string(data), "\n"); n != 4+8 {
		t.Fatalf("journal has %d lines, want the 4-record snapshot plus 8 lines journaled during the pause:\n%s", n, data)
	}
	got := live(openT(t, testConfig(path)))
	if !reflect.DeepEqual(got, wantLive) {
		t.Fatalf("after reopen live = %v, want %v", got, wantLive)
	}
	if keys(got) != "k1,k9,k8,k7,k6,k5,k4,k0,k3" {
		t.Fatalf("after reopen order = %s", keys(got))
	}
}

// TestWriteErrorsSurfaced: a failed append is returned and counted, and
// so is every append while the journal cannot be reopened; none is
// applied. Once a reopen succeeds, appends land again and replay.
func TestWriteErrorsSurfaced(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j := openT(t, testConfig(path))
	if err := j.Put(rec{K: "a"}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Handles opened read-only make every write fail.
	readOnly := func(name string, _ int, _ os.FileMode) (*os.File, error) { return os.Open(name) }
	j, err := open(testConfig(path), readOnly)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Put(rec{K: "b"}); err == nil {
		t.Fatal("put into a read-only handle succeeded")
	}
	if err := j.Put(rec{K: "c"}); err == nil {
		t.Fatal("put after reopening read-only succeeded")
	}
	refused := errors.New("open refused")
	j.openFile = func(string, int, os.FileMode) (*os.File, error) { return nil, refused }
	if err := j.Put(rec{K: "d"}); !errors.Is(err, refused) {
		t.Fatalf("put while the journal cannot be reopened = %v, want %v", err, refused)
	}
	if err := j.Delete("a"); !errors.Is(err, refused) {
		t.Fatalf("delete while the journal cannot be reopened = %v, want %v", err, refused)
	}
	if s := j.Stats(); s.WriteErrors != 4 || s.Entries != 1 {
		t.Fatalf("stats = %+v, want 4 write errors and only a live", s)
	}
	j.openFile = os.OpenFile
	if err := j.Put(rec{K: "e"}); err != nil {
		t.Fatalf("put after the reopen recovered: %v", err)
	}
	j.Close()
	if got := keys(live(openT(t, testConfig(path)))); got != "e,a" {
		t.Fatalf("after reopen live = %s, want e,a", got)
	}
}

// TestCompactionTempOpenFails: a compaction that cannot create its temp
// file is abandoned; the old journal keeps every record.
func TestCompactionTempOpenFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j := openT(t, testConfig(path))
	j.openFile = func(name string, flag int, perm os.FileMode) (*os.File, error) {
		if strings.HasSuffix(name, ".tmp") {
			return nil, errors.New("no temp file")
		}
		return os.OpenFile(name, flag, perm)
	}
	for i := 0; i < 40; i++ {
		if err := j.Put(rec{K: fmt.Sprint("k", i%3), V: fmt.Sprint(i)}); err != nil {
			t.Fatal(err)
		}
	}
	wantLive := live(j)
	j.Close()
	data, _ := os.ReadFile(path)
	if n := strings.Count(string(data), "\n"); n != 40 {
		t.Fatalf("journal has %d lines, want all 40 uncompacted", n)
	}
	if got := live(openT(t, testConfig(path))); !reflect.DeepEqual(got, wantLive) {
		t.Fatalf("after reopen live = %v, want %v", got, wantLive)
	}
}

// TestOverlongLineSkipped: a line past MaxLine is skipped and replay
// goes on with the next line.
func TestOverlongLineSkipped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	long := `{"k":"long","v":"` + strings.Repeat("x", MaxLine) + `"}`
	if err := os.WriteFile(path, []byte(`{"k":"a"}`+"\n"+long+"\n"+`{"k":"b"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(path)
	cfg.MaxBytes = -1
	j := openT(t, cfg)
	if got := keys(live(j)); got != "b,a" {
		t.Fatalf("live = %s, want b,a", got)
	}
	if j.lines != 3 {
		t.Fatalf("counted %d journal lines, want 3", j.lines)
	}
}

// FuzzReplay opens arbitrary journal bytes. It must not panic, a put
// after them must survive a reopen, and compacting and reopening must
// leave the live set unchanged.
func FuzzReplay(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte(`{"k":"a"}` + "\n" + `{"k":"b","v":"x"}` + "\n"))
	f.Add([]byte(`{"k":"a"}` + "\n" + `{"k":"a","del":true}` + "\n" + `{"k":"tor`))
	f.Add([]byte("\n\nnot json\n{\"k\":\"\"}\n{\"k\":\"a\",\"v\":\"\\u00ff\"}"))
	f.Add([]byte(`{"k":"a","v":"` + strings.Repeat("y", 5000) + `"}` + "\n" + `{"k":"b"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "j.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		cfg := testConfig(path)
		cfg.MaxEntries = 8
		j, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Put(rec{K: "fuzz-put", V: "v"}); err != nil {
			t.Fatal(err)
		}
		j.Close()

		j, err = Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r, ok := j.Get("fuzz-put"); !ok || r.V != "v" {
			t.Fatalf("put after arbitrary bytes lost on reopen: %+v %v", r, ok)
		}
		// Force a compaction: count enough dead lines, then journal a
		// tombstone.
		j.mu.Lock()
		j.lines = 1 << 30
		j.mu.Unlock()
		if err := j.Delete("absent"); err != nil {
			t.Fatal(err)
		}
		before := live(j)
		j.Close()
		compacted, _ := os.ReadFile(path)
		if n := strings.Count(string(compacted), "\n"); n != len(before) {
			t.Fatalf("compacted journal has %d lines for %d live records", n, len(before))
		}

		j, err = Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		if after := live(j); !reflect.DeepEqual(after, before) {
			t.Fatalf("compact then reopen changed the live set:\nbefore %v\nafter  %v", before, after)
		}
	})
}

// BenchmarkPutDuringCompaction puts superseding records into a journal
// of 4096 live ~1 KiB records, so compactions of the whole live set run
// throughout, and reports Put latency percentiles.
func BenchmarkPutDuringCompaction(b *testing.B) {
	const live = 4096
	cfg := testConfig(filepath.Join(b.TempDir(), "j.jsonl"))
	cfg.MaxEntries, cfg.MaxBytes = -1, -1
	j := openT(b, cfg)
	pad := strings.Repeat("p", 1000)
	for i := 0; i < live; i++ {
		if err := j.Put(rec{K: fmt.Sprint("k", i), V: pad}); err != nil {
			b.Fatal(err)
		}
	}
	lat := make([]time.Duration, b.N)
	b.ResetTimer()
	for i := range lat {
		start := time.Now()
		if err := j.Put(rec{K: fmt.Sprint("k", i%live), V: pad}); err != nil {
			b.Fatal(err)
		}
		lat[i] = time.Since(start)
	}
	b.StopTimer()
	sort.Slice(lat, func(a, c int) bool { return lat[a] < lat[c] })
	q := func(p float64) float64 { return float64(lat[int(p*float64(len(lat)-1))].Microseconds()) }
	b.ReportMetric(q(0.5), "p50-us")
	b.ReportMetric(q(0.999), "p99.9-us")
	b.ReportMetric(q(1), "max-us")
}
