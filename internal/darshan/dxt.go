package darshan

import (
	"cmp"
	"math"
	"slices"
	"sort"
)

// Op distinguishes read from write events in DXT traces.
type Op string

// DXT operation kinds.
const (
	OpRead  Op = "read"
	OpWrite Op = "write"
)

// DXTEvent is one traced I/O operation: the Darshan eXtended Tracing
// record of a single read or write, including its byte range and
// wall-clock interval relative to job start.
type DXTEvent struct {
	Module  string  // DXTPosix or DXTMPIIO
	Rank    int64   // issuing MPI rank
	Op      Op      // read or write
	Segment int64   // per-rank sequence number within the file
	Offset  int64   // file offset in bytes
	Length  int64   // access size in bytes
	Start   float64 // seconds since job start
	End     float64 // seconds since job start
	OSTs    []int   // Lustre OSTs served by this access (optional)
}

// DXTFileTrace groups the traced events of one file along with the
// host metadata darshan-dxt-parser prints per file block.
type DXTFileTrace struct {
	FileID   uint64
	Hostname string
	Events   []DXTEvent
}

// Counts returns the number of write and read events in the trace.
func (t *DXTFileTrace) Counts() (writes, reads int) {
	for _, e := range t.Events {
		if e.Op == OpWrite {
			writes++
		} else {
			reads++
		}
	}
	return writes, reads
}

// SortByStart orders events by start time, breaking ties by rank, then
// segment, then input position: the order a stable sort on (start,
// rank, segment) gives, for the writer and analyses. It sorts an int32
// permutation and applies it in place, so moving the wide events costs
// one pass and 4 bytes per event. NaN starts order before all others.
func (t *DXTFileTrace) SortByStart() {
	evs := t.Events
	if len(evs) > math.MaxInt32 {
		panic("darshan: DXT trace too large to order")
	}
	sorted := true
	for i := 1; i < len(evs) && sorted; i++ {
		sorted = compareEvents(&evs[i-1], &evs[i]) <= 0
	}
	if sorted {
		return
	}
	perm := make([]int32, len(evs))
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(a, b int32) int {
		if c := compareEvents(&evs[a], &evs[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	// Apply the permutation cycle by cycle: slot i takes evs[perm[i]].
	// Visited slots are marked by perm[j] == j.
	for i := range perm {
		if perm[i] == int32(i) {
			continue
		}
		tmp := evs[i]
		j := int32(i)
		for {
			k := perm[j]
			perm[j] = j
			if k == int32(i) {
				evs[j] = tmp
				break
			}
			evs[j] = evs[k]
			j = k
		}
	}
}

// compareEvents orders two events by (start, rank, segment).
func compareEvents(a, b *DXTEvent) int {
	switch {
	case a.Start < b.Start:
		return -1
	case a.Start > b.Start:
		return 1
	case a.Start != b.Start: // unordered: a NaN is involved
		if c := cmp.Compare(a.Start, b.Start); c != 0 {
			return c
		}
	}
	switch {
	case a.Rank < b.Rank:
		return -1
	case a.Rank > b.Rank:
		return 1
	case a.Segment < b.Segment:
		return -1
	case a.Segment > b.Segment:
		return 1
	}
	return 0
}

// Ranks returns the sorted distinct ranks that issued events.
func (t *DXTFileTrace) Ranks() []int64 {
	seen := map[int64]bool{}
	for _, e := range t.Events {
		seen[e.Rank] = true
	}
	out := make([]int64, 0, len(seen))
	for r := range seen {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
