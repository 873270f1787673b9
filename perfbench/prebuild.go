package main

import (
	"context"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"ion/internal/darshan"
	"ion/internal/drishti"
	"ion/internal/expertsim"
	"ion/internal/extractor"
	"ion/internal/ion"
	"ion/internal/issue"
	"ion/internal/jobs"
	"ion/internal/llm/ledger"
	"ion/internal/quality"
	"ion/internal/semcache"
	"ion/internal/workloads"
)

// reference is the direct-call diagnosis of one trace: the verdicts
// every served report of that trace must match, plus what the
// pre-built data dir is made from.
type reference struct {
	Report   *ion.Report
	Verdicts map[issue.ID]issue.Verdict
	Sig      semcache.Signature
	Score    []quality.IssueScore
}

// analyzeReference runs ion.Framework.AnalyzeLog on the log with the
// expertsim backend ionserve ships with, outside any service.
func analyzeReference(ctx context.Context, fw *ion.Framework, trace string, log *darshan.Log, workDir string) (*reference, error) {
	rep, err := fw.AnalyzeLog(ctx, log, trace, workDir)
	if err != nil {
		return nil, fmt.Errorf("reference %s: %w", trace, err)
	}
	out, err := extractor.LoadDir(workDir)
	if err != nil {
		return nil, fmt.Errorf("reference %s: %w", trace, err)
	}
	det, err := drishti.Analyze(out, drishti.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("reference %s: %w", trace, err)
	}
	var labels []issue.Expectation
	if w, err := workloads.ByName(trace); err == nil {
		labels = w.Truth
	}
	return &reference{
		Report:   rep,
		Verdicts: verdictsOf(rep),
		Sig:      semcache.Extract(out),
		Score:    quality.Score(rep, det, labels),
	}, nil
}

func verdictsOf(rep *ion.Report) map[issue.ID]issue.Verdict {
	v := make(map[issue.ID]issue.Verdict, len(issue.All))
	for _, id := range issue.All {
		v[id] = rep.Verdict(id)
	}
	return v
}

// corpusReferences computes the reference of every corpus trace, two
// traces at a time (each trace's log is touched by one goroutine only).
func corpusReferences(corpus []*corpusTrace, workDir string) (map[string]*reference, error) {
	fw, err := ion.New(ion.Config{Client: expertsim.New()})
	if err != nil {
		return nil, err
	}
	refs := make(map[string]*reference, len(corpus))
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	next := make(chan *corpusTrace)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ct := range next {
				ref, err := analyzeReference(context.Background(), fw, ct.Workload, ct.Log, filepath.Join(workDir, ct.Workload))
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				refs[ct.Workload] = ref
				mu.Unlock()
			}
		}()
	}
	for _, ct := range corpus {
		next <- ct
	}
	close(next)
	wg.Wait()
	return refs, firstErr
}

// prebuildSize is how much history the pre-built data dir holds.
type prebuildSize struct {
	Jobs    int `json:"jobs"`
	Journal int `json:"journal_entries"`
}

// defaultPrebuild models a long-running service: a few thousand
// finished jobs, and semcache, scorecard and ledger journals near
// their default 4096-entry bounds.
var defaultPrebuild = prebuildSize{Jobs: 4000, Journal: 4000}

// synthThreshold is the highest similarity a synthetic semcache
// signature may have to any corpus shape — below the 0.90
// conditioning threshold with a margin, so pre-built entries are
// scanned by every lookup but never answer one.
const synthThreshold = 0.85

// prebuild writes the data dir of a long-running service into dir:
// finished jobs with reports (in the jobs.Store layout) and the
// semcache, quality and ledger journals, written through their
// stores' public Put/Append. The seed sets job ids, hashes, synthetic
// signatures and token counts.
func prebuild(dir string, seed int64, corpus []*corpusTrace, refs map[string]*reference, size prebuildSize) error {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	store, err := jobs.OpenStore(dir)
	if err != nil {
		return err
	}
	reports := map[string][]byte{}
	for _, ct := range corpus {
		var b strings.Builder
		if err := refs[ct.Workload].Report.EncodeJSON(&b); err != nil {
			return err
		}
		reports[ct.Workload] = []byte(b.String())
	}

	now := time.Now().UTC()
	ids := make([]string, size.Jobs)
	names := make([]string, size.Jobs)
	for i := range ids {
		ids[i] = "j-" + randHex(rng, 6)
		names[i] = corpus[rng.Intn(len(corpus))].Workload
		at := now.Add(-time.Duration(size.Jobs-i) * 37 * time.Second)
		j := &jobs.Job{
			ID:          ids[i],
			Trace:       names[i],
			Hash:        randHex(rng, 32),
			State:       jobs.StateDone,
			Attempts:    1,
			Ingest:      &jobs.Ingest{Mode: jobs.IngestBody, Bytes: int64(50000 + rng.Intn(500000))},
			Cost:        &jobs.Cost{Calls: 10, TokensIn: 20000 + rng.Intn(5000), TokensOut: 3000 + rng.Intn(1000)},
			Quality:     &jobs.Quality{Agreement: 1},
			SubmittedAt: at,
			StartedAt:   at.Add(200 * time.Millisecond),
			FinishedAt:  at.Add(900 * time.Millisecond),
		}
		if err := store.PutJob(j); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, "reports", ids[i]+".json"), reports[names[i]], 0o644); err != nil {
			return err
		}
	}

	// The newest Journal jobs are the ones the journals still hold.
	first := size.Jobs - size.Journal
	if first < 0 {
		first = 0
	}
	if err := prebuildSemcache(dir, rng, corpus, refs, ids[first:], names[first:], now); err != nil {
		return err
	}
	if err := prebuildQuality(dir, refs, ids[first:], names[first:], now); err != nil {
		return err
	}
	return prebuildLedger(dir, rng, ids[first:], now)
}

func prebuildSemcache(dir string, rng *rand.Rand, corpus []*corpusTrace, refs map[string]*reference, ids, names []string, now time.Time) error {
	// A scratch store holding the corpus shapes answers "how close is
	// this synthetic signature to any corpus trace" with the service's
	// own similarity.
	probe, err := semcache.Open(semcache.Options{Path: filepath.Join(dir, "probe.jsonl")})
	if err != nil {
		return err
	}
	for _, ct := range corpus {
		if err := probe.Put(semcache.Entry{JobID: "corpus-" + ct.Workload, Signature: refs[ct.Workload].Sig}); err != nil {
			return err
		}
	}
	sem, err := semcache.Open(semcache.Options{Path: filepath.Join(dir, "semcache.jsonl")})
	if err != nil {
		return err
	}
	dims := len(refs[corpus[0].Workload].Sig)
	for i, id := range ids {
		var sig semcache.Signature
		for {
			sig = make(semcache.Signature, dims)
			for k := 0; k < 3; k++ {
				sig[rng.Intn(dims)] = 0.1 + 0.9*rng.Float64()
			}
			if m, ok := probe.Lookup(sig); !ok || m.Similarity < synthThreshold {
				break
			}
		}
		err := sem.Put(semcache.Entry{
			JobID:     id,
			TraceHash: randHex(rng, 32),
			Trace:     names[i],
			Signature: sig,
			Issues:    detectedIDs(refs[names[i]].Report),
			Outcome:   "full",
			CreatedAt: now.Add(-time.Duration(len(ids)-i) * 37 * time.Second),
		})
		if err != nil {
			return err
		}
	}
	if err := probe.Close(); err != nil {
		return err
	}
	if err := os.Remove(filepath.Join(dir, "probe.jsonl")); err != nil {
		return err
	}
	return sem.Close()
}

func detectedIDs(rep *ion.Report) []string {
	var out []string
	for _, id := range rep.Detected() {
		out = append(out, string(id))
	}
	return out
}

func prebuildQuality(dir string, refs map[string]*reference, ids, names []string, now time.Time) error {
	q, err := quality.Open(quality.Options{Path: filepath.Join(dir, "quality.jsonl")})
	if err != nil {
		return err
	}
	for i, id := range ids {
		card := quality.Scorecard{
			JobID:     id,
			Trace:     names[i],
			Mode:      quality.ModeFull,
			CreatedAt: now.Add(-time.Duration(len(ids)-i) * 37 * time.Second),
			Issues:    refs[names[i]].Score,
		}
		card.Summarize()
		if err := q.Put(card); err != nil {
			return err
		}
	}
	return q.Close()
}

func prebuildLedger(dir string, rng *rand.Rand, ids []string, now time.Time) error {
	l, err := ledger.Open(ledger.StoreOptions{Path: filepath.Join(dir, "llm", "ledger.jsonl")})
	if err != nil {
		return err
	}
	// Ten calls per job (nine diagnoses and a summary) fill the bound
	// with the newest jobs.
	n := len(ids)
	for i := 0; i < n; i++ {
		job := ids[n-1-i/10]
		tmpl, iss := "diagnosis", string(issue.All[i%len(issue.All)])
		if i%10 == 9 {
			tmpl, iss = "summary", ""
		}
		err := l.Append(ledger.Entry{
			ID:        "e-" + randHex(rng, 6),
			Time:      now.Add(-time.Duration(n-i) * 3 * time.Second),
			Job:       job,
			Template:  tmpl,
			Issue:     iss,
			PromptSHA: randHex(rng, 32),
			Backend:   "expertsim",
			Model:     "expertsim",
			TokensIn:  1500 + rng.Intn(1500),
			TokensOut: 250 + rng.Intn(250),
			LatencyMS: 2 + 10*rng.Float64(),
			Outcome:   "ok",
			Attempt:   1,
			CostUSD:   0.01 * rng.Float64(),
		})
		if err != nil {
			return err
		}
	}
	return l.Close()
}

func randHex(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	rng.Read(b)
	return hex.EncodeToString(b)
}

// copyDataDir copies a data dir for one service instance. The
// journals, which the service appends to, are copied; every other file
// is only ever replaced by rename, never written in place, so it is a
// hard link.
func copyDataDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if strings.HasSuffix(path, ".jsonl") {
			return copyFile(path, target)
		}
		return os.Link(path, target)
	})
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}
