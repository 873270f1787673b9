// Package analysis is the computation engine behind the simulated
// expert model: the set of trace analyses the paper's LLM performed by
// generating and executing code through the Assistants API. Each
// exported function computes one issue-specific report from the
// extracted CSV tables, and the expertsim client stitches the results
// into chain-of-thought steps, a code listing, and a conclusion.
package analysis

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"ion/internal/darshan"
	"ion/internal/extractor"
	"ion/internal/knowledge"
	"ion/internal/table"
)

// Env bundles everything an analysis needs: the extracted tables and
// the system hyperparameters. An Env is safe for concurrent use by the
// analyses; the DXT events and the shared-file report are computed once.
type Env struct {
	Out   *extractor.Output
	Hyper knowledge.Hyperparams

	eventsOnce sync.Once
	events     []Event
	files      []string    // interned file names, indexed by Event.File
	streams    []streamKey // access streams, indexed by Event.Stream
	eventsErr  error

	sharedOnce sync.Once
	shared     SharedFileReport
	sharedErr  error
}

// NewEnv builds an analysis environment.
func NewEnv(out *extractor.Output, hyper knowledge.Hyperparams) *Env {
	return &Env{Out: out, Hyper: hyper}
}

// Event is one parsed DXT row.
type Event struct {
	FileID   string
	FileName string
	Module   string
	Rank     int64
	Op       string // "read" or "write"
	Offset   int64
	Length   int64
	Start    float64
	End      float64
	// File is FileName interned: dense ids in order of first appearance.
	File int32
	// Stream is the dense id of the event's (file, rank, op) access
	// stream, in order of first appearance.
	Stream int32
}

// streamKey identifies one per-(file, rank, op) access stream. op is
// the interned Op string.
type streamKey struct {
	file, op int32
	rank     int64
}

// Events parses the DXT table once, interning file names and access
// streams to dense ids. It returns an error when the trace has no DXT
// data — callers fall back to counter-only analyses.
func (e *Env) Events() ([]Event, error) {
	e.eventsOnce.Do(func() { e.eventsErr = e.parseEvents() })
	return e.events, e.eventsErr
}

func (e *Env) parseEvents() error {
	t := e.Out.Table(extractor.TableDXT)
	if t == nil {
		return fmt.Errorf("analysis: trace has no DXT table")
	}
	// Columns are resolved once; a row with a cell that does not parse
	// is re-read through the table's typed accessors for their error.
	var col [len(dxtColumns)]int
	if t.NumRows() > 0 {
		for k, name := range dxtColumns {
			i, err := t.ColIndex(name)
			if err != nil {
				return err
			}
			col[k] = i
		}
	}
	evs := make([]Event, 0, t.NumRows())
	var files, ops interner
	streams := map[streamKey]int32{}
	for i, row := range t.Rows {
		ev := Event{FileID: row[col[0]], FileName: row[col[1]], Module: row[col[2]], Op: row[col[4]]}
		var e1, e2, e3, e4, e5 error
		ev.Rank, e1 = strconv.ParseInt(row[col[3]], 10, 64)
		ev.Offset, e2 = strconv.ParseInt(row[col[5]], 10, 64)
		ev.Length, e3 = strconv.ParseInt(row[col[6]], 10, 64)
		ev.Start, e4 = strconv.ParseFloat(row[col[7]], 64)
		ev.End, e5 = strconv.ParseFloat(row[col[8]], 64)
		if e1 != nil || e2 != nil || e3 != nil || e4 != nil || e5 != nil {
			return rowError(t, i)
		}
		ev.File = files.id(ev.FileName)
		k := streamKey{file: ev.File, op: ops.id(ev.Op), rank: ev.Rank}
		id, ok := streams[k]
		if !ok {
			id = int32(len(e.streams))
			streams[k] = id
			e.streams = append(e.streams, k)
		}
		ev.Stream = id
		evs = append(evs, ev)
	}
	e.events = evs
	e.files = files.names
	return nil
}

// dxtColumns are the DXT table columns an Event is read from, in the
// order their errors are reported.
var dxtColumns = [...]string{
	"file_id", "file_name", "module", "rank", "op", "offset", "length", "start", "end",
}

// rowError returns the typed accessors' error for the first DXT cell
// of row i that does not parse.
func rowError(t *table.Table, i int) error {
	for _, c := range []string{"rank", "offset", "length"} {
		if _, err := t.Int(i, c); err != nil {
			return err
		}
	}
	for _, c := range []string{"start", "end"} {
		if _, err := t.Float(i, c); err != nil {
			return err
		}
	}
	return nil
}

// interner assigns dense int32 ids to strings in order of first
// appearance. DXT rows come grouped by file, so the previous string is
// checked before the map.
type interner struct {
	ids    map[string]int32
	names  []string
	last   string
	lastID int32
}

func (in *interner) id(s string) int32 {
	if len(in.names) > 0 && s == in.last {
		return in.lastID
	}
	id, ok := in.ids[s]
	if !ok {
		if in.ids == nil {
			in.ids = map[string]int32{}
		}
		id = int32(len(in.names))
		in.ids[s] = id
		in.names = append(in.names, s)
	}
	in.last, in.lastID = s, id
	return id
}

// ranksPerFile counts the distinct ranks accessing each interned file.
// Call after Events succeeded.
func (e *Env) ranksPerFile() []int {
	counts := make([]int, len(e.files))
	type fileRank struct {
		file int32
		rank int64
	}
	seen := make(map[fileRank]struct{}, len(e.streams))
	for _, k := range e.streams {
		fr := fileRank{k.file, k.rank}
		if _, ok := seen[fr]; !ok {
			seen[fr] = struct{}{}
			counts[k.file]++
		}
	}
	return counts
}

// activeRanks counts the distinct ranks with DXT events. Call after
// Events succeeded.
func (e *Env) activeRanks() int {
	ranks := map[int64]struct{}{}
	for _, k := range e.streams {
		ranks[k.rank] = struct{}{}
	}
	return len(ranks)
}

// SumPosix sums one POSIX counter column across records; missing table
// or column yields zero (Darshan counter semantics).
func (e *Env) SumPosix(counter string) int64 {
	t := e.Out.Table(extractor.TablePOSIX)
	if t == nil || !t.HasCol(counter) {
		return 0
	}
	v, err := t.SumInt(counter)
	if err != nil {
		return 0
	}
	return v
}

// SumPosixFloat sums one POSIX float counter column.
func (e *Env) SumPosixFloat(counter string) float64 {
	t := e.Out.Table(extractor.TablePOSIX)
	if t == nil || !t.HasCol(counter) {
		return 0
	}
	v, err := t.SumFloat(counter)
	if err != nil {
		return 0
	}
	return v
}

// SumMpiio sums one MPI-IO counter column.
func (e *Env) SumMpiio(counter string) int64 {
	t := e.Out.Table(extractor.TableMPIIO)
	if t == nil || !t.HasCol(counter) {
		return 0
	}
	v, err := t.SumInt(counter)
	if err != nil {
		return 0
	}
	return v
}

// NProcs returns the job's rank count from the JOB table.
func (e *Env) NProcs() int {
	t := e.Out.Table(extractor.TableJob)
	if t == nil || t.NumRows() == 0 {
		return e.Out.Header.NProcs
	}
	v, err := t.Int(0, "nprocs")
	if err != nil {
		return e.Out.Header.NProcs
	}
	return int(v)
}

// TotalDataOps returns POSIX reads+writes (the denominator most shares
// use).
func (e *Env) TotalDataOps() int64 {
	return e.SumPosix(darshan.CPosixReads) + e.SumPosix(darshan.CPosixWrites)
}

// share divides safely.
func share(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// fshare divides floats safely.
func fshare(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// Pct formats a share as a percentage with two decimals.
func Pct(f float64) string { return fmt.Sprintf("%.2f%%", 100*f) }

// --- Small I/O ---

// SmallIOReport quantifies small-request behavior and aggregation
// potential.
type SmallIOReport struct {
	TotalOps     int64
	SmallOps     int64 // ops below the RPC size
	SmallShare   float64
	TinyOps      int64 // ops below the stripe size
	TinyShare    float64
	SmallBytes   int64
	TotalBytes   int64
	VolumeShare  float64 // bytes moved by small ops / total bytes
	ConsecSmall  int64   // small ops consecutive with the previous access
	ConsecShare  float64 // of small ops
	AggPotential int64   // small ops that are consecutive → aggregatable
	PerRankSmall float64 // mean small ops per rank
	RPCSize      int64
	StripeSize   int64
}

// SmallIO computes the small-I/O report from the DXT event stream.
func SmallIO(env *Env) (SmallIOReport, error) {
	evs, err := env.Events()
	if err != nil {
		return SmallIOReport{}, err
	}
	r := SmallIOReport{RPCSize: env.Hyper.RPCSize, StripeSize: env.Hyper.StripeSize}
	// prevEnd[s] is where stream s's previous access ended, once seen[s].
	prevEnd := make([]int64, len(env.streams))
	seen := make([]bool, len(env.streams))
	for _, ev := range evs {
		r.TotalOps++
		r.TotalBytes += ev.Length
		small := ev.Length < env.Hyper.RPCSize
		if small {
			r.SmallOps++
			r.SmallBytes += ev.Length
		}
		if ev.Length < env.Hyper.StripeSize {
			r.TinyOps++
		}
		if seen[ev.Stream] && small && ev.Offset == prevEnd[ev.Stream] {
			r.ConsecSmall++
		}
		seen[ev.Stream] = true
		prevEnd[ev.Stream] = ev.Offset + ev.Length
	}
	r.SmallShare = share(r.SmallOps, r.TotalOps)
	r.TinyShare = share(r.TinyOps, r.TotalOps)
	r.VolumeShare = share(r.SmallBytes, r.TotalBytes)
	r.ConsecShare = share(r.ConsecSmall, r.SmallOps)
	r.AggPotential = r.ConsecSmall
	if ranks := env.activeRanks(); ranks > 0 {
		r.PerRankSmall = float64(r.SmallOps) / float64(ranks)
	}
	return r, nil
}

// --- Alignment ---

// AlignmentReport quantifies file- and memory-alignment violations.
type AlignmentReport struct {
	TotalOps      int64
	FileMis       int64
	FileShare     float64
	MemMis        int64
	MemShare      float64
	FileAlignment int64
	WorstFile     string
	WorstFileMis  int64
}

// Alignment computes misalignment shares from POSIX counters, with the
// per-file worst offender.
func Alignment(env *Env) (AlignmentReport, error) {
	t := env.Out.Table(extractor.TablePOSIX)
	if t == nil {
		return AlignmentReport{}, fmt.Errorf("analysis: trace has no POSIX table")
	}
	var r AlignmentReport
	for i := 0; i < t.NumRows(); i++ {
		reads, err := t.Int(i, darshan.CPosixReads)
		if err != nil {
			return r, err
		}
		writes, err := t.Int(i, darshan.CPosixWrites)
		if err != nil {
			return r, err
		}
		mis, err := t.Int(i, darshan.CPosixFileNotAligned)
		if err != nil {
			return r, err
		}
		mem, err := t.Int(i, darshan.CPosixMemNotAligned)
		if err != nil {
			return r, err
		}
		align, err := t.Int(i, darshan.CPosixFileAlignment)
		if err != nil {
			return r, err
		}
		r.TotalOps += reads + writes
		r.FileMis += mis
		r.MemMis += mem
		if align > r.FileAlignment {
			r.FileAlignment = align
		}
		if mis > r.WorstFileMis {
			r.WorstFileMis = mis
			r.WorstFile, _ = t.Value(i, "file_name")
		}
	}
	r.FileShare = share(r.FileMis, r.TotalOps)
	r.MemShare = share(r.MemMis, r.TotalOps)
	return r, nil
}

// --- Access pattern ---

// PatternReport classifies every non-initial access of each per-rank
// stream as consecutive, repeat (same offset and length as the previous
// access — temporal re-access, not randomness), forward jump (strided),
// or backward jump.
type PatternReport struct {
	Classified     int64
	Consecutive    int64
	Repeats        int64
	ForwardJumps   int64
	BackwardJumps  int64
	ConsecShare    float64
	NonContig      int64
	NonContigShare float64
	BackwardShare  float64
	// Random ops = non-contiguous accesses; RandomBytes their volume.
	RandomOps         int64
	RandomBytes       int64
	TotalBytes        int64
	RandomVolumeShare float64
	// PerRankRandomMean is mean random ops per active rank.
	PerRankRandomMean float64
	// RandomReads/RandomReadShare mirror Drishti's read-random metric.
	Reads           int64
	RandomReads     int64
	RandomReadShare float64
}

// Pattern computes the access-pattern report from DXT.
func Pattern(env *Env) (PatternReport, error) {
	evs, err := env.Events()
	if err != nil {
		return PatternReport{}, err
	}
	var r PatternReport
	// prev[s] is stream s's previous access, once seen[s].
	type access struct{ start, end, length int64 }
	prev := make([]access, len(env.streams))
	seen := make([]bool, len(env.streams))
	randPerRank := map[int64]int64{}
	for _, ev := range evs {
		r.TotalBytes += ev.Length
		if ev.Op == "read" {
			r.Reads++
		}
		p := &prev[ev.Stream]
		if seen[ev.Stream] {
			r.Classified++
			switch {
			case ev.Offset == p.end:
				r.Consecutive++
			case ev.Offset == p.start && ev.Length == p.length:
				r.Repeats++
			case ev.Offset > p.end:
				r.ForwardJumps++
				r.RandomOps++
				r.RandomBytes += ev.Length
				randPerRank[ev.Rank]++
				if ev.Op == "read" {
					r.RandomReads++
				}
			default:
				r.BackwardJumps++
				r.RandomOps++
				r.RandomBytes += ev.Length
				randPerRank[ev.Rank]++
				if ev.Op == "read" {
					r.RandomReads++
				}
			}
		}
		seen[ev.Stream] = true
		*p = access{start: ev.Offset, end: ev.Offset + ev.Length, length: ev.Length}
	}
	r.NonContig = r.ForwardJumps + r.BackwardJumps
	r.ConsecShare = share(r.Consecutive, r.Classified)
	r.NonContigShare = share(r.NonContig, r.Classified)
	r.BackwardShare = share(r.BackwardJumps, r.Classified)
	r.RandomVolumeShare = share(r.RandomBytes, r.TotalBytes)
	r.RandomReadShare = share(r.RandomReads, r.Reads)
	if len(randPerRank) > 0 {
		var sum int64
		for _, v := range randPerRank {
			sum += v
		}
		r.PerRankRandomMean = float64(sum) / float64(len(randPerRank))
	}
	return r, nil
}

// --- Shared file ---

// SharedFileReport reconstructs multi-rank file access and stripe
// conflicts from DXT.
type SharedFileReport struct {
	SharedFiles         int
	MaxRanks            int
	BusiestFile         string
	StripesTouched      int64
	ConflictStripes     int64 // stripes written by more than one rank
	ConflictShare       float64
	OverlapEvents       int64 // conflicting-stripe accesses overlapping in time
	WriteOps            int64
	WritesOnShared      int64 // writes landing on conflict stripes
	WritesOnSharedShare float64
	StripeSize          int64
}

// SharedFile computes the shared-file report. The report is computed
// once per Env; later calls return the same result.
func SharedFile(env *Env) (SharedFileReport, error) {
	env.sharedOnce.Do(func() { env.shared, env.sharedErr = sharedFile(env) })
	return env.shared, env.sharedErr
}

// stripeKey identifies one stripe unit of one interned file.
type stripeKey struct {
	file   int32
	stripe int64
}

// stripeState is everything SharedFile tracks per stripe: its writers
// (only whether more than one rank wrote it matters) and the
// latest-ending access, against which temporal overlap is checked. Only
// conflicts involving at least one write count (concurrent reads of
// one stripe are benign).
type stripeState struct {
	writer    int64 // first rank that wrote the stripe
	lastRank  int64
	lastEnd   float64
	writers   uint8 // distinct writing ranks, saturating at 2
	lastWrite bool
}

func sharedFile(env *Env) (SharedFileReport, error) {
	evs, err := env.Events()
	if err != nil {
		return SharedFileReport{}, err
	}
	r := SharedFileReport{StripeSize: env.Hyper.StripeSize}
	for file, n := range env.ranksPerFile() {
		if n > 1 {
			r.SharedFiles++
		}
		// Strictly greater: ties go to the file that appeared first.
		if n > r.MaxRanks {
			r.MaxRanks = n
			r.BusiestFile = env.files[file]
		}
	}

	index := map[stripeKey]int32{}
	var stripes []stripeState
	// writeStripes lists, write by write in event order, the stripe
	// indices each write touched, for the conflict check once every
	// stripe's writers are known.
	var writeStripes []int32
	for _, ev := range evs {
		write := ev.Op == "write"
		if write {
			r.WriteOps++
		}
		first, last := stripeSpan(ev, r.StripeSize)
		for s := first; s <= last; s++ {
			k := stripeKey{ev.File, s}
			i, ok := index[k]
			if !ok {
				i = int32(len(stripes))
				index[k] = i
				stripes = append(stripes, stripeState{lastRank: ev.Rank, lastEnd: ev.End, lastWrite: write})
			} else {
				st := &stripes[i]
				if st.lastRank != ev.Rank && ev.Start < st.lastEnd && (st.lastWrite || write) {
					r.OverlapEvents++
				}
				if ev.End > st.lastEnd {
					st.lastRank, st.lastEnd, st.lastWrite = ev.Rank, ev.End, write
				}
			}
			if write {
				st := &stripes[i]
				switch {
				case st.writers == 0:
					st.writer, st.writers = ev.Rank, 1
				case st.writers == 1 && st.writer != ev.Rank:
					st.writers = 2
				}
				writeStripes = append(writeStripes, i)
			}
		}
	}
	for _, st := range stripes {
		if st.writers > 1 {
			r.ConflictStripes++
		}
	}
	r.StripesTouched = int64(len(stripes))
	r.ConflictShare = share(r.ConflictStripes, r.StripesTouched)
	// A write lands on a conflict stripe if any stripe it touched ended
	// up with more than one writer.
	for _, ev := range evs {
		if ev.Op != "write" {
			continue
		}
		first, last := stripeSpan(ev, r.StripeSize)
		n := 0
		if last >= first {
			n = int(last-first) + 1
		}
		for _, i := range writeStripes[:n] {
			if stripes[i].writers > 1 {
				r.WritesOnShared++
				break
			}
		}
		writeStripes = writeStripes[n:]
	}
	r.WritesOnSharedShare = share(r.WritesOnShared, r.WriteOps)
	return r, nil
}

// stripeSpan returns the first and last stripe an event touches; a
// zero-length access counts as touching its offset's stripe.
func stripeSpan(ev Event, size int64) (first, last int64) {
	return ev.Offset / size, (ev.Offset + max64(ev.Length, 1) - 1) / size
}

// --- Load imbalance ---

// RankLoad is one rank's totals.
type RankLoad struct {
	Rank  int64
	Bytes int64
	Ops   int64
	Time  float64
}

// ImbalanceReport quantifies per-rank workload skew.
type ImbalanceReport struct {
	Ranks        int
	ActiveRanks  int
	Loads        []RankLoad // sorted by bytes descending
	TopRank      int64
	TopByteShare float64
	TopOpsShare  float64
	// SubsetK is the smallest number of ranks covering 95% of bytes.
	SubsetK int
	// SubsetShare is the byte share of those SubsetK ranks.
	SubsetShare float64
	// ImbalancePct is Drishti's (max-avg)/max metric over bytes.
	ImbalancePct float64
	TotalBytes   int64
	// Pattern classifies the shape: "balanced", "single-rank", "subset".
	Pattern string
}

// Imbalance computes per-rank load distribution from DXT.
func Imbalance(env *Env) (ImbalanceReport, error) {
	evs, err := env.Events()
	if err != nil {
		return ImbalanceReport{}, err
	}
	per := map[int64]*RankLoad{}
	for _, ev := range evs {
		l, ok := per[ev.Rank]
		if !ok {
			l = &RankLoad{Rank: ev.Rank}
			per[ev.Rank] = l
		}
		l.Bytes += ev.Length
		l.Ops++
		l.Time += ev.End - ev.Start
	}
	r := ImbalanceReport{Ranks: env.NProcs(), ActiveRanks: len(per)}
	for _, l := range per {
		r.Loads = append(r.Loads, *l)
		r.TotalBytes += l.Bytes
	}
	sort.Slice(r.Loads, func(i, j int) bool {
		if r.Loads[i].Bytes != r.Loads[j].Bytes {
			return r.Loads[i].Bytes > r.Loads[j].Bytes
		}
		return r.Loads[i].Rank < r.Loads[j].Rank
	})
	if len(r.Loads) == 0 {
		r.Pattern = "balanced"
		return r, nil
	}
	var totalOps int64
	for _, l := range r.Loads {
		totalOps += l.Ops
	}
	r.TopRank = r.Loads[0].Rank
	r.TopByteShare = share(r.Loads[0].Bytes, r.TotalBytes)
	r.TopOpsShare = share(r.Loads[0].Ops, totalOps)
	var cum int64
	for i, l := range r.Loads {
		cum += l.Bytes
		if float64(cum) >= 0.95*float64(r.TotalBytes) {
			r.SubsetK = i + 1
			r.SubsetShare = share(cum, r.TotalBytes)
			break
		}
	}
	maxB := float64(r.Loads[0].Bytes)
	avgB := float64(r.TotalBytes) / float64(maxInt(r.Ranks, len(r.Loads)))
	r.ImbalancePct = fshare(maxB-avgB, maxB)
	topOutlier := len(r.Loads) > 1 && r.Loads[0].Bytes > 10*r.Loads[1].Bytes
	switch {
	case r.Ranks <= 1:
		// A serial job cannot be imbalanced.
		r.Pattern = "balanced"
	case r.TopByteShare > 0.5 && r.Ranks > 1, topOutlier && r.ImbalancePct > 0.5:
		r.Pattern = "single-rank"
	case r.SubsetK > 0 && r.SubsetK*4 < r.ActiveRanks:
		r.Pattern = "subset"
	case r.ImbalancePct > 0.3 && r.ActiveRanks*2 < r.Ranks:
		r.Pattern = "subset"
	default:
		r.Pattern = "balanced"
	}
	return r, nil
}

// --- Metadata ---

// MetadataReport compares metadata load against data load.
type MetadataReport struct {
	Opens, Stats, Seeks, Fsyncs int64
	MetaOps                     int64
	DataOps                     int64
	Ratio                       float64 // metadata ops per data op
	MetaTime                    float64
	IOTime                      float64
	TimeShare                   float64 // metadata time / total I/O time
	DistinctFiles               int
}

// Metadata computes the metadata report from POSIX counters.
func Metadata(env *Env) (MetadataReport, error) {
	t := env.Out.Table(extractor.TablePOSIX)
	if t == nil {
		return MetadataReport{}, fmt.Errorf("analysis: trace has no POSIX table")
	}
	var r MetadataReport
	r.Opens = env.SumPosix(darshan.CPosixOpens)
	r.Stats = env.SumPosix(darshan.CPosixStats)
	r.Seeks = env.SumPosix(darshan.CPosixSeeks)
	r.Fsyncs = env.SumPosix(darshan.CPosixFsyncs)
	r.MetaOps = r.Opens + r.Stats + r.Seeks + r.Fsyncs
	r.DataOps = env.TotalDataOps()
	r.Ratio = fshare(float64(r.MetaOps), float64(r.DataOps))
	r.MetaTime = env.SumPosixFloat(darshan.FPosixMetaTime)
	r.IOTime = r.MetaTime +
		env.SumPosixFloat(darshan.FPosixReadTime) +
		env.SumPosixFloat(darshan.FPosixWriteTime)
	r.TimeShare = fshare(r.MetaTime, r.IOTime)
	files := map[string]bool{}
	for i := 0; i < t.NumRows(); i++ {
		name, err := t.Value(i, "file_name")
		if err != nil {
			return r, err
		}
		files[name] = true
	}
	r.DistinctFiles = len(files)
	return r, nil
}

// --- Interface usage ---

// InterfaceReport describes which I/O interfaces the job used.
type InterfaceReport struct {
	NProcs        int
	UsesPOSIX     bool
	UsesMPIIO     bool
	UsesSTDIO     bool
	PosixDataOps  int64
	MpiioDataOps  int64
	StdioDataOps  int64
	MultiRankData bool // >1 rank performed data I/O
	SharedFiles   int  // files accessed by >1 rank (0 if no DXT)
}

// Interface computes the interface-usage report.
func Interface(env *Env) (InterfaceReport, error) {
	var r InterfaceReport
	r.NProcs = env.NProcs()
	posix := env.Out.Table(extractor.TablePOSIX)
	r.UsesPOSIX = posix != nil && posix.NumRows() > 0
	r.PosixDataOps = env.TotalDataOps()
	mp := env.Out.Table(extractor.TableMPIIO)
	r.MpiioDataOps = env.SumMpiio(darshan.CMpiioIndepReads) + env.SumMpiio(darshan.CMpiioIndepWrites) +
		env.SumMpiio(darshan.CMpiioCollReads) + env.SumMpiio(darshan.CMpiioCollWrites)
	r.UsesMPIIO = mp != nil && mp.NumRows() > 0 && r.MpiioDataOps > 0
	st := env.Out.Table(extractor.TableSTDIO)
	if st != nil && st.NumRows() > 0 {
		reads, _ := st.SumInt(darshan.CStdioReads)
		writes, _ := st.SumInt(darshan.CStdioWrites)
		r.StdioDataOps = reads + writes
		r.UsesSTDIO = r.StdioDataOps > 0
	}
	if _, err := env.Events(); err == nil {
		r.MultiRankData = env.activeRanks() > 1
		for _, n := range env.ranksPerFile() {
			if n > 1 {
				r.SharedFiles++
			}
		}
	} else {
		r.MultiRankData = r.NProcs > 1 && r.PosixDataOps > 0
	}
	return r, nil
}

// --- Collective I/O ---

// CollectiveReport describes the collective/independent MPI-IO split.
type CollectiveReport struct {
	HasMPIIO        bool
	CollOps         int64
	IndepOps        int64
	CollOpens       int64
	IndepOpens      int64
	CollShare       float64
	SmallIndep      int64 // independent data ops below the stripe size
	SmallIndepShare float64
}

// Collective computes the collective-I/O report.
func Collective(env *Env) (CollectiveReport, error) {
	var r CollectiveReport
	t := env.Out.Table(extractor.TableMPIIO)
	if t == nil || t.NumRows() == 0 {
		return r, nil
	}
	r.HasMPIIO = true
	r.CollOps = env.SumMpiio(darshan.CMpiioCollReads) + env.SumMpiio(darshan.CMpiioCollWrites)
	r.IndepOps = env.SumMpiio(darshan.CMpiioIndepReads) + env.SumMpiio(darshan.CMpiioIndepWrites)
	r.CollOpens = env.SumMpiio(darshan.CMpiioCollOpens)
	r.IndepOpens = env.SumMpiio(darshan.CMpiioIndepOpens)
	r.CollShare = share(r.CollOps, r.CollOps+r.IndepOps)
	for _, b := range darshan.SizeBins {
		if b.Hi > 0 && b.Hi <= env.Hyper.StripeSize {
			r.SmallIndep += env.SumMpiio("MPIIO_SIZE_READ_AGG_" + b.Suffix)
			r.SmallIndep += env.SumMpiio("MPIIO_SIZE_WRITE_AGG_" + b.Suffix)
		}
	}
	// The size histogram covers all MPI-IO ops; attribute small ones to
	// the independent side proportionally when collectives exist.
	if r.CollOps == 0 {
		r.SmallIndepShare = share(r.SmallIndep, r.IndepOps)
	} else {
		r.SmallIndepShare = share(r.SmallIndep, r.CollOps+r.IndepOps)
	}
	return r, nil
}

// --- Time imbalance ---

// TimeReport quantifies per-rank I/O time divergence.
type TimeReport struct {
	ActiveRanks  int
	SlowestRank  int64
	SlowestTime  float64
	MeanTime     float64
	Ratio        float64 // slowest / mean
	VarianceTime float64 // Darshan's reduced variance counter
}

// TimeImbalance computes the time-imbalance report.
func TimeImbalance(env *Env) (TimeReport, error) {
	evs, err := env.Events()
	if err != nil {
		return TimeReport{}, err
	}
	per := map[int64]float64{}
	for _, ev := range evs {
		per[ev.Rank] += ev.End - ev.Start
	}
	var r TimeReport
	r.ActiveRanks = len(per)
	if r.ActiveRanks == 0 {
		return r, nil
	}
	var sum float64
	for rank, t := range per {
		sum += t
		if t > r.SlowestTime {
			r.SlowestTime = t
			r.SlowestRank = rank
		}
	}
	r.MeanTime = sum / float64(r.ActiveRanks)
	r.Ratio = fshare(r.SlowestTime, r.MeanTime)
	r.VarianceTime = env.SumPosixFloat(darshan.FPosixVarianceTime)
	return r, nil
}

// FileCount returns the number of distinct files in the POSIX table.
func FileCount(env *Env) int {
	t := env.Out.Table(extractor.TablePOSIX)
	if t == nil {
		return 0
	}
	files := map[string]bool{}
	for i := 0; i < t.NumRows(); i++ {
		if name, err := t.Value(i, "file_name"); err == nil {
			files[name] = true
		}
	}
	return len(files)
}

// Describe renders a short human-readable list of the interfaces used.
func (r InterfaceReport) Describe() string {
	var used []string
	if r.UsesPOSIX {
		used = append(used, "POSIX")
	}
	if r.UsesMPIIO {
		used = append(used, "MPI-IO")
	}
	if r.UsesSTDIO {
		used = append(used, "STDIO")
	}
	if len(used) == 0 {
		return "no I/O interfaces"
	}
	return strings.Join(used, ", ")
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
