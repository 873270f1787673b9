package darshan_test

import (
	"bytes"
	"fmt"
	"testing"

	"ion/internal/darshan"
	"ion/internal/workloads"
)

// TestSortByStartOnTiledStreamTrace orders the tiled openpmd-baseline
// text (the streamed-upload benchmark body) both ways. Tiling repeats
// every (start, rank, segment) key once per tile, so the order hinges
// on the input-position tie-break.
func TestSortByStartOnTiledStreamTrace(t *testing.T) {
	w, err := workloads.ByName("openpmd-baseline")
	if err != nil {
		t.Fatal(err)
	}
	log, err := w.Generate()
	if err != nil {
		t.Fatal(err)
	}
	var tile bytes.Buffer
	if err := log.WriteText(&tile); err != nil {
		t.Fatal(err)
	}
	if err := log.WriteDXTText(&tile); err != nil {
		t.Fatal(err)
	}
	tiled := bytes.Repeat(tile.Bytes(), 3)

	unsorted, err := darshan.ParseTextUnsorted(tiled)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := darshan.ParseText(bytes.NewReader(tiled))
	if err != nil {
		t.Fatal(err)
	}
	if len(unsorted.DXT) == 0 || len(unsorted.DXT) != len(parsed.DXT) {
		t.Fatalf("DXT traces: %d unsorted, %d parsed", len(unsorted.DXT), len(parsed.DXT))
	}
	ties := 0
	for i, tr := range unsorted.DXT {
		want := append([]darshan.DXTEvent(nil), tr.Events...)
		darshan.SortByStartReference(want)
		for j := 1; j < len(want); j++ {
			a, b := want[j-1], want[j]
			if a.Start == b.Start && a.Rank == b.Rank && a.Segment == b.Segment {
				ties++
			}
		}
		got := parsed.DXT[i].Events
		if len(got) != len(want) {
			t.Fatalf("file %d: %d events parsed, %d in input", tr.FileID, len(got), len(want))
		}
		for j := range want {
			if fmt.Sprint(got[j]) != fmt.Sprint(want[j]) {
				t.Fatalf("file %d event %d: got %+v, reference %+v", tr.FileID, j, got[j], want[j])
			}
		}
	}
	if ties == 0 {
		t.Fatal("tiled trace has no (start, rank, segment) ties; the test no longer exercises the tie-break")
	}
}
