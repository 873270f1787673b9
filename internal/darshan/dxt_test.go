package darshan

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"testing"
)

// SortByStartReference is the stable-sort ordering SortByStart
// replaced; SortByStart must give exactly its order.
func SortByStartReference(evs []DXTEvent) {
	sort.SliceStable(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		return a.Segment < b.Segment
	})
}

// ParseTextUnsorted parses darshan-parser text like ParseText but
// leaves every DXT trace in input order, so tests can order it
// themselves.
func ParseTextUnsorted(data []byte) (*Log, error) {
	p := newParser(false)
	var off int64
	for lineno := 1; len(data) > 0; lineno++ {
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line = data[:i+1]
		}
		if err := p.parseLine(line, lineno, off); err != nil {
			return nil, err
		}
		data = data[len(line):]
		off += int64(len(line))
	}
	return p.log, nil
}

// checkSortByStart fails t unless SortByStart orders evs exactly as
// the reference does.
func checkSortByStart(t *testing.T, evs []DXTEvent) {
	t.Helper()
	want := append([]DXTEvent(nil), evs...)
	SortByStartReference(want)
	tr := DXTFileTrace{Events: append([]DXTEvent(nil), evs...)}
	tr.SortByStart()
	for i := range want {
		if fmt.Sprint(tr.Events[i]) != fmt.Sprint(want[i]) {
			t.Fatalf("event %d of %d: got %+v, reference %+v", i, len(want), tr.Events[i], want[i])
		}
	}
}

// fuzzEvents decodes 4 bytes per event: start on a coarse grid
// (including -0 and +0), a rank in [-8, 8), a segment in [0, 4) and a
// length that is often zero. Offset records the input position, so
// any reordering of ties shows.
func fuzzEvents(data []byte) []DXTEvent {
	var evs []DXTEvent
	for i := 0; i+4 <= len(data); i += 4 {
		b := data[i : i+4]
		start := float64(b[0]%8) / 2
		if b[0]%8 == 0 && b[0]&0x80 != 0 {
			start = math.Copysign(0, -1)
		}
		evs = append(evs, DXTEvent{
			Module:  "X_POSIX",
			Rank:    int64(int8(b[1])) >> 4,
			Op:      []Op{OpRead, OpWrite}[b[2]&1],
			Segment: int64(b[2]>>1) % 4,
			Offset:  int64(len(evs)),
			Length:  int64(b[3] % 3),
			Start:   start,
			End:     start + 1,
		})
	}
	return evs
}

func TestSortByStartMatchesReference(t *testing.T) {
	checkSortByStart(t, nil)
	checkSortByStart(t, fuzzEvents([]byte{1, 0, 0, 0}))
	// Already ordered, reversed, and all-tied inputs.
	var asc, desc, tied []byte
	for i := byte(0); i < 40; i++ {
		asc = append(asc, i/5, i%5<<4, 0, 0)
		desc = append(desc, 7-i/5, 0x70-i%5<<4, 0, 0)
		tied = append(tied, 3, 0x10, 2, 0)
	}
	checkSortByStart(t, fuzzEvents(asc))
	checkSortByStart(t, fuzzEvents(desc))
	checkSortByStart(t, fuzzEvents(tied))
}

// FuzzSortByStart checks SortByStart against the stable-sort reference
// on arbitrary finite event streams.
func FuzzSortByStart(f *testing.F) {
	f.Add([]byte{})
	// Exact (start, rank, segment) ties, each a different input slot.
	f.Add([]byte{2, 0x10, 0, 0, 2, 0x10, 0, 1, 2, 0x10, 0, 2, 1, 0x10, 0, 0})
	// Negative and duplicate ranks, zero lengths, -0 against +0.
	f.Add([]byte{0x80, 0xf0, 1, 0, 0, 0xf0, 1, 0, 0x80, 0x80, 3, 0, 0, 0x70, 2, 0, 0x80, 0xf0, 1, 0})
	// Segments out of order within one rank.
	f.Add([]byte{4, 0x20, 6, 1, 4, 0x20, 2, 1, 4, 0x20, 4, 1, 4, 0x20, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSortByStart(t, fuzzEvents(data))
	})
}
