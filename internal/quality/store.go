package quality

import (
	"fmt"
	"sort"
	"sync/atomic"

	"ion/internal/issue"
	"ion/internal/journal"
)

// Defaults for Options left at zero.
const (
	DefaultMaxEntries = 4096
	DefaultMaxBytes   = 16 << 20
)

// Options configures a Store.
type Options struct {
	// Path is the JSON-lines journal file; required.
	Path string
	// MaxEntries bounds the scorecard count (default 4096; negative
	// disables the count bound).
	MaxEntries int
	// MaxBytes bounds the estimated retained bytes (default 16 MiB;
	// negative disables the byte bound).
	MaxBytes int64
}

// AgreeStat aggregates the verdict comparisons for one issue across
// the live scorecards.
type AgreeStat struct {
	Total       int `json:"total"`
	Agree       int `json:"agree"`
	LLMOnly     int `json:"llm_only"`
	DrishtiOnly int `json:"drishti_only"`
}

// Ratio is the agreement fraction, 1 when no samples exist.
func (a AgreeStat) Ratio() float64 {
	if a.Total == 0 {
		return 1
	}
	return float64(a.Agree) / float64(a.Total)
}

// FlipStat aggregates shadow re-run outcomes for one reuse mode.
type FlipStat struct {
	// Shadowed counts the scorecards of this mode that a shadow re-run
	// has checked.
	Shadowed int `json:"shadowed"`
	// Flipped counts those whose re-run changed at least one verdict.
	Flipped int `json:"flipped"`
}

// Ratio is the flip fraction, 0 when nothing was shadowed.
func (f FlipStat) Ratio() float64 {
	if f.Shadowed == 0 {
		return 0
	}
	return float64(f.Flipped) / float64(f.Shadowed)
}

// Stats is a counters snapshot for /api/quality and /metrics.
type Stats struct {
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	Puts      int64 `json:"puts"`
	Evictions int64 `json:"evictions"`
	// WriteErrors counts journal appends that failed (see
	// internal/journal).
	WriteErrors int64 `json:"write_errors"`
}

// Store persists scorecards on an internal/journal JSON-lines journal:
// supersede by job id (how shadow results update a card), tombstones,
// and count/byte bounds evicting the oldest card first. All methods
// are safe for concurrent use and safe on a nil receiver (quality
// tracking disabled).
type Store struct {
	j    *journal.Journal[Scorecard]
	puts atomic.Int64
}

// Open loads (or creates) the store at opts.Path, replaying the
// journal: later records supersede earlier ones with the same job id,
// tombstones delete, and the count/byte bounds are enforced
// oldest-first.
func Open(opts Options) (*Store, error) {
	if opts.Path == "" {
		return nil, fmt.Errorf("quality: Options.Path is required")
	}
	if opts.MaxEntries == 0 {
		opts.MaxEntries = DefaultMaxEntries
	}
	if opts.MaxBytes == 0 {
		opts.MaxBytes = DefaultMaxBytes
	}
	j, err := journal.Open(journal.Config[Scorecard]{
		Path:       opts.Path,
		Key:        func(c Scorecard) string { return c.JobID },
		Valid:      func(c Scorecard) bool { return c.JobID != "" },
		Deleted:    func(c Scorecard) bool { return c.Deleted },
		Tombstone:  func(job string) Scorecard { return Scorecard{JobID: job, Deleted: true} },
		Size:       Scorecard.size,
		MaxEntries: opts.MaxEntries,
		MaxBytes:   opts.MaxBytes,
	})
	if err != nil {
		return nil, fmt.Errorf("quality: %w", err)
	}
	return &Store{j: j}, nil
}

// Put journals and indexes a scorecard, superseding any prior record
// for the same job (how shadow results update an existing card).
// Evictions are not journaled individually; bounds re-apply on the
// next load.
func (st *Store) Put(c Scorecard) error {
	if st == nil {
		return nil
	}
	if c.JobID == "" {
		return fmt.Errorf("quality: scorecard needs a job id")
	}
	if err := st.j.Put(c); err != nil {
		return fmt.Errorf("quality: journaling scorecard: %w", err)
	}
	st.puts.Add(1)
	return nil
}

// Delete tombstones a scorecard (e.g. its job was deleted) so it stops
// influencing the aggregates and stays gone after a restart.
func (st *Store) Delete(jobID string) error {
	if st == nil || jobID == "" {
		return nil
	}
	if err := st.j.Delete(jobID); err != nil {
		return fmt.Errorf("quality: journaling tombstone: %w", err)
	}
	return nil
}

// Get returns the scorecard for a job.
func (st *Store) Get(jobID string) (Scorecard, bool) {
	if st == nil {
		return Scorecard{}, false
	}
	return st.j.Get(jobID)
}

// Entries returns a snapshot of the live scorecards, most recent first
// by creation time (the /api/quality listing order).
func (st *Store) Entries() []Scorecard {
	if st == nil {
		return nil
	}
	out := make([]Scorecard, 0, st.j.Len())
	st.j.Each(func(c Scorecard) bool {
		out = append(out, c)
		return true
	})
	sort.SliceStable(out, func(i, j int) bool {
		if !out[i].CreatedAt.Equal(out[j].CreatedAt) {
			return out[i].CreatedAt.After(out[j].CreatedAt)
		}
		return out[i].JobID < out[j].JobID
	})
	return out
}

// Tail returns the n most recent scorecards (the flight-recorder
// bundle payload).
func (st *Store) Tail(n int) []Scorecard {
	all := st.Entries()
	if n > 0 && len(all) > n {
		all = all[:n]
	}
	return all
}

// IssueAgreement aggregates per-issue verdict comparisons across the
// live scorecards. The aggregates are recomputed from the replayed
// journal, so they survive restarts; the scan is bounded by
// MaxEntries.
func (st *Store) IssueAgreement() map[issue.ID]AgreeStat {
	out := map[issue.ID]AgreeStat{}
	if st == nil {
		return out
	}
	st.j.Each(func(c Scorecard) bool {
		for _, s := range c.Issues {
			a := out[s.Issue]
			a.Total++
			switch s.Kind {
			case KindLLMOnly:
				a.LLMOnly++
			case KindDrishtiOnly:
				a.DrishtiOnly++
			default:
				a.Agree++
			}
			out[s.Issue] = a
		}
		return true
	})
	return out
}

// FlipStats aggregates shadow re-run outcomes per reuse mode across
// the live scorecards.
func (st *Store) FlipStats() map[Mode]FlipStat {
	out := map[Mode]FlipStat{}
	if st == nil {
		return out
	}
	st.j.Each(func(c Scorecard) bool {
		if c.Shadow != nil {
			f := out[c.Mode]
			f.Shadowed++
			if len(c.Shadow.Flips) > 0 {
				f.Flipped++
			}
			out[c.Mode] = f
		}
		return true
	})
	return out
}

// Len returns the number of live scorecards.
func (st *Store) Len() int {
	if st == nil {
		return 0
	}
	return st.j.Len()
}

// Bytes returns the estimated retained bytes.
func (st *Store) Bytes() int64 {
	if st == nil {
		return 0
	}
	return st.j.Stats().Bytes
}

// Stats returns a counters snapshot.
func (st *Store) Stats() Stats {
	if st == nil {
		return Stats{}
	}
	js := st.j.Stats()
	return Stats{
		Entries:     js.Entries,
		Bytes:       js.Bytes,
		Puts:        st.puts.Load(),
		Evictions:   js.Evicted,
		WriteErrors: js.WriteErrors,
	}
}

// Close flushes and closes the journal.
func (st *Store) Close() error {
	if st == nil {
		return nil
	}
	return st.j.Close()
}
