package analysis

import (
	"fmt"
	"strconv"
	"testing"

	"ion/internal/extractor"
	"ion/internal/knowledge"
	"ion/internal/table"
	"ion/internal/workloads"
)

// The reference analyses below are the string-keyed, map-per-field
// implementations the interned engine replaced. They define what the
// engine must compute; the tests assert equal reports.

type refStreamID struct {
	file string
	rank int64
	op   string
}

func refSmallIO(env *Env) (SmallIOReport, error) {
	evs, err := env.Events()
	if err != nil {
		return SmallIOReport{}, err
	}
	r := SmallIOReport{RPCSize: env.Hyper.RPCSize, StripeSize: env.Hyper.StripeSize}
	prevEnd := map[refStreamID]int64{}
	seen := map[refStreamID]bool{}
	ranks := map[int64]bool{}
	for _, ev := range evs {
		r.TotalOps++
		r.TotalBytes += ev.Length
		ranks[ev.Rank] = true
		small := ev.Length < env.Hyper.RPCSize
		if small {
			r.SmallOps++
			r.SmallBytes += ev.Length
		}
		if ev.Length < env.Hyper.StripeSize {
			r.TinyOps++
		}
		id := refStreamID{ev.FileName, ev.Rank, ev.Op}
		if seen[id] && small && ev.Offset == prevEnd[id] {
			r.ConsecSmall++
		}
		seen[id] = true
		prevEnd[id] = ev.Offset + ev.Length
	}
	r.SmallShare = share(r.SmallOps, r.TotalOps)
	r.TinyShare = share(r.TinyOps, r.TotalOps)
	r.VolumeShare = share(r.SmallBytes, r.TotalBytes)
	r.ConsecShare = share(r.ConsecSmall, r.SmallOps)
	r.AggPotential = r.ConsecSmall
	if len(ranks) > 0 {
		r.PerRankSmall = float64(r.SmallOps) / float64(len(ranks))
	}
	return r, nil
}

func refPattern(env *Env) (PatternReport, error) {
	evs, err := env.Events()
	if err != nil {
		return PatternReport{}, err
	}
	var r PatternReport
	prevEnd := map[refStreamID]int64{}
	prevStart := map[refStreamID]int64{}
	prevLen := map[refStreamID]int64{}
	seen := map[refStreamID]bool{}
	randPerRank := map[int64]int64{}
	for _, ev := range evs {
		r.TotalBytes += ev.Length
		if ev.Op == "read" {
			r.Reads++
		}
		id := refStreamID{ev.FileName, ev.Rank, ev.Op}
		if seen[id] {
			r.Classified++
			switch {
			case ev.Offset == prevEnd[id]:
				r.Consecutive++
			case ev.Offset == prevStart[id] && ev.Length == prevLen[id]:
				r.Repeats++
			case ev.Offset > prevEnd[id]:
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
		seen[id] = true
		prevEnd[id] = ev.Offset + ev.Length
		prevStart[id] = ev.Offset
		prevLen[id] = ev.Length
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

// refSharedFile picks BusiestFile by ranging over a map, so on a tie in
// rank count its choice is arbitrary; sameSharedFile checks that field
// against the tie-break rule separately.
func refSharedFile(env *Env) (SharedFileReport, error) {
	evs, err := env.Events()
	if err != nil {
		return SharedFileReport{}, err
	}
	r := SharedFileReport{StripeSize: env.Hyper.StripeSize}
	type stripeKey struct {
		file   string
		stripe int64
	}
	ranksPerFile := map[string]map[int64]bool{}
	writersPerStripe := map[stripeKey]map[int64]bool{}
	stripes := map[stripeKey]bool{}
	type interval struct {
		rank  int64
		end   float64
		write bool
	}
	lastOnStripe := map[stripeKey]interval{}

	for _, ev := range evs {
		if ranksPerFile[ev.FileName] == nil {
			ranksPerFile[ev.FileName] = map[int64]bool{}
		}
		ranksPerFile[ev.FileName][ev.Rank] = true
		first := ev.Offset / r.StripeSize
		last := (ev.Offset + max64(ev.Length, 1) - 1) / r.StripeSize
		for s := first; s <= last; s++ {
			k := stripeKey{ev.FileName, s}
			stripes[k] = true
			if ev.Op == "write" {
				if writersPerStripe[k] == nil {
					writersPerStripe[k] = map[int64]bool{}
				}
				writersPerStripe[k][ev.Rank] = true
			}
			if prev, ok := lastOnStripe[k]; ok && prev.rank != ev.Rank && ev.Start < prev.end &&
				(prev.write || ev.Op == "write") {
				r.OverlapEvents++
			}
			if cur, ok := lastOnStripe[k]; !ok || ev.End > cur.end {
				lastOnStripe[k] = interval{rank: ev.Rank, end: ev.End, write: ev.Op == "write"}
			}
		}
		if ev.Op == "write" {
			r.WriteOps++
		}
	}
	for file, ranks := range ranksPerFile {
		if len(ranks) > 1 {
			r.SharedFiles++
		}
		if len(ranks) > r.MaxRanks {
			r.MaxRanks = len(ranks)
			r.BusiestFile = file
		}
	}
	conflict := map[stripeKey]bool{}
	for k, writers := range writersPerStripe {
		if len(writers) > 1 {
			conflict[k] = true
			r.ConflictStripes++
		}
	}
	r.StripesTouched = int64(len(stripes))
	r.ConflictShare = share(r.ConflictStripes, r.StripesTouched)
	for _, ev := range evs {
		if ev.Op != "write" {
			continue
		}
		first := ev.Offset / r.StripeSize
		last := (ev.Offset + max64(ev.Length, 1) - 1) / r.StripeSize
		for s := first; s <= last; s++ {
			if conflict[stripeKey{ev.FileName, s}] {
				r.WritesOnShared++
				break
			}
		}
	}
	r.WritesOnSharedShare = share(r.WritesOnShared, r.WriteOps)
	return r, nil
}

// refInterfaceDXT is the DXT half of the reference Interface report.
func refInterfaceDXT(evs []Event) (multiRank bool, sharedFiles int) {
	ranks := map[int64]bool{}
	perFile := map[string]map[int64]bool{}
	for _, ev := range evs {
		ranks[ev.Rank] = true
		if perFile[ev.FileName] == nil {
			perFile[ev.FileName] = map[int64]bool{}
		}
		perFile[ev.FileName][ev.Rank] = true
	}
	for _, rs := range perFile {
		if len(rs) > 1 {
			sharedFiles++
		}
	}
	return len(ranks) > 1, sharedFiles
}

// firstBusiestFile is the BusiestFile tie-break rule: among the files
// with the most distinct ranks, the first to appear in event order.
func firstBusiestFile(evs []Event) string {
	ranks := map[string]map[int64]bool{}
	var order []string
	for _, ev := range evs {
		if ranks[ev.FileName] == nil {
			ranks[ev.FileName] = map[int64]bool{}
			order = append(order, ev.FileName)
		}
		ranks[ev.FileName][ev.Rank] = true
	}
	best, max := "", 0
	for _, f := range order {
		if len(ranks[f]) > max {
			best, max = f, len(ranks[f])
		}
	}
	return best
}

// checkAgainstReference fails t unless every interned analysis equals
// its reference on env. Reports are compared with %v, which treats NaN
// shares as equal.
func checkAgainstReference(t *testing.T, name string, env *Env) {
	t.Helper()
	same := func(what string, got, want any, gotErr, wantErr error) {
		t.Helper()
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s %s: error %v, reference %v", name, what, gotErr, wantErr)
		}
		if g, w := fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", want); g != w {
			t.Fatalf("%s %s:\n got  %s\n want %s", name, what, g, w)
		}
	}
	s, serr := SmallIO(env)
	rs, rserr := refSmallIO(env)
	same("SmallIO", s, rs, serr, rserr)
	p, perr := Pattern(env)
	rp, rperr := refPattern(env)
	same("Pattern", p, rp, perr, rperr)
	sf, sferr := SharedFile(env)
	rsf, rsferr := refSharedFile(env)
	if evs, err := env.Events(); err == nil {
		if want := firstBusiestFile(evs); sf.BusiestFile != want {
			t.Fatalf("%s SharedFile: busiest file %q, want first-appearing %q", name, sf.BusiestFile, want)
		}
		sf.BusiestFile, rsf.BusiestFile = "", ""
		multi, shared := refInterfaceDXT(evs)
		in, _ := Interface(env)
		if in.MultiRankData != multi || in.SharedFiles != shared {
			t.Fatalf("%s Interface: multi-rank %v shared %d, reference %v %d",
				name, in.MultiRankData, in.SharedFiles, multi, shared)
		}
	}
	same("SharedFile", sf, rsf, sferr, rsferr)
}

func TestReportsMatchReferenceOnWorkloads(t *testing.T) {
	for _, w := range append(workloads.All(), workloads.Extras()...) {
		checkAgainstReference(t, w.Name, envFor(t, w.Name))
	}
}

// TestSharedFileBusiestFileDeterministic pins the tie-break: md-workbench
// has several files touched by the same number of ranks, and a fresh
// Env must name the same one every time.
func TestSharedFileBusiestFileDeterministic(t *testing.T) {
	for _, name := range []string{"md-workbench", "ior-easy-1m-fpp"} {
		base := envFor(t, name)
		first, err := SharedFile(NewEnv(base.Out, base.Hyper))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			r, err := SharedFile(NewEnv(base.Out, base.Hyper))
			if err != nil {
				t.Fatal(err)
			}
			if r != first {
				t.Fatalf("%s call %d: %+v, first call %+v", name, i, r, first)
			}
		}
	}
}

// dxtEnv builds an Env over a DXT table decoded from fuzz bytes, 8
// bytes per event: small stripe and RPC sizes, four file names, ranks
// in [-8, 8), three op strings, offsets that go negative, lengths from
// zero, and start/end times on a coarse grid so exact ties are common.
func dxtEnv(data []byte) *Env {
	t := table.New(extractor.TableDXT, []string{
		"file_id", "file_name", "module", "rank", "op",
		"segment", "offset", "length", "start", "end", "osts",
	})
	ops := []string{"read", "write", "write", "read", "flush"}
	for i := 0; i+8 <= len(data); i += 8 {
		b := data[i : i+8]
		file := int(b[0] % 4)
		start := float64(b[5]%16) / 4
		_ = t.Append([]string{
			strconv.Itoa(100 + file),
			"/f" + strconv.Itoa(file),
			"X_POSIX",
			strconv.FormatInt(int64(int8(b[1]))>>4, 10),
			ops[int(b[2])%len(ops)],
			strconv.Itoa(int(b[7])),
			strconv.FormatInt(int64(int8(b[3]))*4, 10),
			strconv.FormatInt(int64(b[4]%64), 10),
			strconv.FormatFloat(start, 'f', -1, 64),
			strconv.FormatFloat(start+float64(b[6]%8)/4, 'f', -1, 64),
			"",
		})
	}
	out := &extractor.Output{Tables: map[string]*table.Table{extractor.TableDXT: t}}
	hyper := knowledge.DefaultHyperparams()
	hyper.StripeSize, hyper.RPCSize = 16, 32
	return NewEnv(out, hyper)
}

// FuzzAnalysisReports checks the interned SmallIO, Pattern, SharedFile
// and Interface reports against the string-keyed references on
// arbitrary event streams.
func FuzzAnalysisReports(f *testing.F) {
	f.Add([]byte{})
	// Exact ties: same file, start, end; two ranks writing one stripe.
	f.Add([]byte{
		0, 0x10, 1, 0, 8, 4, 4, 0,
		0, 0x20, 1, 0, 8, 4, 4, 0,
		0, 0x10, 1, 2, 8, 4, 4, 1,
	})
	// Negative and duplicate ranks, zero lengths, negative offsets.
	f.Add([]byte{
		1, 0xf0, 0, 0xfe, 0, 1, 2, 0,
		1, 0xf0, 0, 0xfe, 0, 1, 2, 0,
		1, 0x80, 1, 0x80, 63, 2, 0, 3,
		2, 0x70, 4, 3, 0, 0, 0, 0,
	})
	// Ties on rank count across files (busiest-file tie-break).
	f.Add([]byte{
		3, 0x10, 1, 0, 16, 0, 1, 0,
		2, 0x10, 1, 0, 16, 0, 1, 0,
		3, 0x20, 0, 4, 16, 1, 1, 0,
		2, 0x20, 0, 4, 16, 1, 1, 0,
	})
	// One rank: overlapping writes on one stripe (not a conflict), then
	// a read at the previous read's offset with a different length (a
	// backward jump, not a repeat).
	f.Add([]byte{
		0, 0x10, 1, 0, 8, 0, 4, 0,
		0, 0x10, 1, 1, 8, 1, 4, 1,
		0, 0x10, 0, 0, 8, 2, 1, 0,
		0, 0x10, 0, 0, 4, 3, 1, 1,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstReference(t, "fuzz", dxtEnv(data))
	})
}
