package main

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"sync"
	"testing"
)

var (
	testCorpusOnce sync.Once
	testCorpus     []*corpusTrace
	testCorpusErr  error
)

func corpusForTest(t *testing.T) []*corpusTrace {
	t.Helper()
	testCorpusOnce.Do(func() { testCorpus, testCorpusErr = buildCorpus() })
	if testCorpusErr != nil {
		t.Fatal(testCorpusErr)
	}
	return testCorpus
}

func TestSameSeedSameCorpusAndSchedule(t *testing.T) {
	corpus := corpusForTest(t)
	a, err := planOpenLoop(corpus, 7, 4.8, 48, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := planOpenLoop(corpus, 7, 4.8, 48, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Source != y.Source || x.Name != y.Name || x.Format != y.Format || x.HeaderJobID != y.HeaderJobID || x.Due != y.Due {
			t.Fatalf("submission %d differs: %+v vs %+v", i, x, y)
		}
		if !bytes.Equal(x.bodyBytes(), y.bodyBytes()) {
			t.Fatalf("submission %d: bodies differ", i)
		}
	}
	st := &streamTrace{trace: corpus[0], minBytes: 1 << 20}
	first := append([]byte(nil), st.render(123456789)...)
	if !bytes.Equal(first, st.render(123456789)) {
		t.Fatal("stream body differs for the same job id")
	}
}

func TestOtherSeedKeepsShapesChangesIDs(t *testing.T) {
	corpus := corpusForTest(t)
	a, err := planOpenLoop(corpus, 7, 4.8, 48, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := planOpenLoop(corpus, 8, 4.8, 48, 0)
	if err != nil {
		t.Fatal(err)
	}
	shapes := func(subs []*submission) []string {
		var out []string
		for _, s := range subs {
			out = append(out, s.Name+"/"+s.Format)
		}
		sort.Strings(out)
		return out
	}
	if fmt.Sprint(shapes(a)) != fmt.Sprint(shapes(b)) {
		t.Fatalf("seeds send different traces:\n%v\n%v", shapes(a), shapes(b))
	}
	ids := map[int64]bool{}
	for _, s := range a {
		ids[s.HeaderJobID] = true
	}
	for _, s := range b {
		if ids[s.HeaderJobID] {
			t.Fatalf("header job id %d repeats across seeds", s.HeaderJobID)
		}
	}
	// Every trace goes out in both formats, whatever the order.
	for _, ct := range corpus {
		for _, f := range []string{formatBinary, formatText} {
			found := false
			for _, s := range a {
				found = found || (s.Name == ct.Workload && s.Format == f)
			}
			if !found {
				t.Errorf("%s never sent as %s", ct.Workload, f)
			}
		}
	}
}

func TestCopiesDifferOnlyInHeaderJobID(t *testing.T) {
	corpus := corpusForTest(t)
	ct := corpus[0]
	x := bytes.Join(ct.textParts(111111111), nil)
	y := bytes.Join(ct.textParts(222222222), nil)
	if len(x) != len(y) {
		t.Fatal("copies differ in length")
	}
	diff := 0
	for i := range x {
		if x[i] != y[i] {
			diff++
		}
	}
	if diff == 0 || diff > 9 {
		t.Fatalf("copies differ in %d bytes, want only the job id digits", diff)
	}
}

// bodyBytes materializes a submission body.
func (s *submission) bodyBytes() []byte {
	r, _ := s.body()
	b, _ := io.ReadAll(r)
	return b
}
