package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ion/internal/darshan"
	"ion/internal/drishti"
	"ion/internal/expertsim"
	"ion/internal/extractor"
	"ion/internal/ion"
	"ion/internal/jobs"
	"ion/internal/llm"
	"ion/internal/llm/ledger"
	"ion/internal/obs"
	"ion/internal/quality"
	"ion/internal/semcache"
)

// isoTrace is one trace of the workload's own set, as the isolation
// pass feeds it to each layer.
type isoTrace struct {
	name string
	log  *darshan.Log
	bin  []byte // binary container (nil for the stream trace)
	text []byte
}

// isolate is the layer-isolation pass: it calls each layer's public
// functions directly on the workload's traces and on a copy of the
// traced run's data dir, and returns the per-layer figures by metric
// name.
func (e *env) isolate(p *phase) (map[string]float64, error) {
	m := map[string]float64{}
	iso := filepath.Join(e.dir, "isolation")
	if err := copyDataDir(p.Dir, iso); err != nil {
		return nil, err
	}
	traces, err := e.isoTraces()
	if err != nil {
		return nil, err
	}

	// jobs: loading the job store.
	var opens []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		svc, err := jobs.Open(jobs.Config{Dir: iso, Client: expertsim.New(), Paused: true})
		if err != nil {
			return nil, err
		}
		opens = append(opens, ms(time.Since(start)))
		if err := svc.Close(context.Background()); err != nil {
			return nil, err
		}
	}
	m["jobs.open_ms"] = median(opens)

	if err := e.isolateWebUI(p, iso, m); err != nil {
		return nil, err
	}
	if err := isolatePersist(iso, traces, e.refFor, m); err != nil {
		return nil, err
	}
	if err := isolateParse(e.corpus, e.stream, m); err != nil {
		return nil, err
	}

	// extractor, then the layers that consume its output.
	var extracts, csvMB, allocs, sigs []float64
	outs := make([]*extractor.Output, len(traces))
	for i, t := range traces {
		dir := filepath.Join(e.dir, "isolation-extract", fmt.Sprint(i))
		a := mallocs()
		start := time.Now()
		out, err := extractor.ExtractToDir(t.log, dir)
		if err != nil {
			return nil, err
		}
		extracts = append(extracts, ms(time.Since(start)))
		allocs = append(allocs, float64(mallocs()-a))
		csvMB = append(csvMB, float64(dirBytes(dir))/1e6)
		outs[i] = out
		start = time.Now()
		semcache.Extract(out)
		sigs = append(sigs, us(time.Since(start)))
	}
	m["extractor.extract_ms"] = median(extracts)
	m["extractor.csv_mb_per_job"] = mean(csvMB)
	m["extractor.allocs_per_job"] = mean(allocs)
	m["semcache.signature_us"] = median(sigs)

	sem, err := semcache.Open(semcache.Options{Path: filepath.Join(iso, "semcache.jsonl")})
	if err != nil {
		return nil, err
	}
	m["semcache.entries"] = float64(sem.Len())
	var lookups []float64
	for r := 0; r < 5; r++ {
		for _, out := range outs {
			sig := semcache.Extract(out)
			start := time.Now()
			sem.Lookup(sig)
			lookups = append(lookups, us(time.Since(start)))
		}
	}
	m["semcache.lookup_us"] = median(lookups)
	if err := sem.Close(); err != nil {
		return nil, err
	}

	// ion: per-issue fan-out and summary, with the model calls timed as
	// children of the analysis.
	rec := &recorder{}
	fw, err := ion.New(ion.Config{Client: tracedClient{inner: expertsim.New(), rec: rec}})
	if err != nil {
		return nil, err
	}
	var analyze, self []float64
	for i, out := range outs {
		job := fmt.Sprintf("iso-%d", i)
		start := time.Now()
		if _, err := fw.AnalyzeExtracted(llm.WithJobID(context.Background(), job), out, traces[i].name); err != nil {
			return nil, err
		}
		sp := span{Name: "ion.analyze", Job: job, Start: start, End: time.Now()}
		rec.add(sp.Name, job, sp.Start, sp.End, 0, 0)
		var children []span
		for _, c := range rec.named("llm.complete") {
			if c.Job == job {
				children = append(children, c)
			}
		}
		analyze = append(analyze, ms(sp.dur()))
		self = append(self, ms(selfTime(sp, children)))
	}
	var prompt []float64
	for _, c := range rec.named("llm.complete") {
		prompt = append(prompt, float64(c.TokensIn))
	}
	m["ion.analyze_ms"] = median(analyze)
	m["ion.self_ms"] = median(self)
	m["ion.prompt_tokens_per_call"] = mean(prompt)

	// ledger: appending to a journal at its bound.
	led, err := ledger.Open(ledger.StoreOptions{Path: filepath.Join(iso, "llm", "ledger.jsonl")})
	if err != nil {
		return nil, err
	}
	var appends []float64
	for i := 0; i < 300; i++ {
		e := ledger.Entry{ID: fmt.Sprintf("e-iso%08d", i), Time: time.Now().UTC(), Job: "iso", Template: "diagnosis",
			PromptSHA: "0000000000000000000000000000000000000000000000000000000000000000", Backend: "expertsim",
			TokensIn: 2000, TokensOut: 300, Outcome: "ok", Attempt: 1}
		start := time.Now()
		if err := led.Append(e); err != nil {
			return nil, err
		}
		appends = append(appends, us(time.Since(start)))
	}
	m["ledger.append_us"] = median(appends)
	if err := led.Close(); err != nil {
		return nil, err
	}

	// quality: the deterministic baseline plus the scorecard journal,
	// then Put alone at the bound (where compaction strikes).
	q, err := quality.Open(quality.Options{Path: filepath.Join(iso, "quality.jsonl")})
	if err != nil {
		return nil, err
	}
	var scores, puts []float64
	for i, out := range outs {
		rep := e.refFor(traces[i].name).Report
		start := time.Now()
		det, err := drishti.Analyze(out, drishti.DefaultConfig())
		if err != nil {
			return nil, err
		}
		card := quality.Scorecard{JobID: fmt.Sprintf("iso-score-%d", i), Trace: traces[i].name, Mode: quality.ModeFull,
			CreatedAt: time.Now().UTC(), Issues: quality.Score(rep, det, nil)}
		card.Summarize()
		if err := q.Put(card); err != nil {
			return nil, err
		}
		scores = append(scores, ms(time.Since(start)))
	}
	card := quality.Scorecard{Trace: traces[0].name, Mode: quality.ModeFull, Issues: e.refFor(traces[0].name).Score}
	card.Summarize()
	for i := 0; i < 500; i++ {
		card.JobID = fmt.Sprintf("iso-put-%d", i)
		card.CreatedAt = time.Now().UTC()
		start := time.Now()
		if err := q.Put(card); err != nil {
			return nil, err
		}
		puts = append(puts, us(time.Since(start)))
	}
	m["quality.score_ms"] = median(scores)
	m["quality.put_us.p50"] = median(puts)
	m["quality.put_us.max"] = maxOf(puts)
	if err := q.Close(); err != nil {
		return nil, err
	}
	return m, os.RemoveAll(iso)
}

// isoTraces is the workload's own trace set: the 12 corpus traces, or
// the tiled stream trace.
func (e *env) isoTraces() ([]isoTrace, error) {
	if e.spec.Stream {
		text := append([]byte(nil), e.stream.render(1)...)
		log, err := darshan.ParseText(bytes.NewReader(text))
		if err != nil {
			return nil, err
		}
		return []isoTrace{{name: streamWorkload + "-tiled", log: log, text: text}}, nil
	}
	var out []isoTrace
	for _, ct := range e.corpus {
		bin, err := binaryWithJobID(ct.Log, ct.Log.Header.JobID)
		if err != nil {
			return nil, err
		}
		out = append(out, isoTrace{name: ct.Workload, log: ct.Log, bin: bin, text: bytes.Join(ct.textParts(ct.Log.Header.JobID), nil)})
	}
	return out, nil
}

// refFor returns the reference of a corpus or stream trace name.
func (e *env) refFor(name string) *reference {
	if ref, ok := e.refs[name]; ok {
		return ref
	}
	return e.refs["stream"]
}

// isolateWebUI times the read routes on a stack over the isolation
// copy, one request at a time.
func (e *env) isolateWebUI(p *phase, dir string, m map[string]float64) error {
	st, err := openStack(dir, e.settings, nil)
	if err != nil {
		return err
	}
	defer st.close()
	jobID := ""
	for _, r := range p.Results {
		if r.OK {
			jobID = r.JobID
		}
	}
	pages := []struct{ metric, path string }{
		{"webui.list_ms", "/"},
		{"webui.job_page_ms", "/jobs/" + jobID},
		{"webui.metrics_scrape_ms", "/metrics"},
		{"webui.dashboard_ms", "/dashboard/quality"},
	}
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	for _, pg := range pages {
		var ts []float64
		for i := 0; i < 15; i++ {
			start := time.Now()
			resp, err := hc.Get(st.srv.URL + pg.path)
			if err != nil {
				return err
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("isolation: GET %s: %s", pg.path, resp.Status)
			}
			ts = append(ts, ms(time.Since(start)))
		}
		m[pg.metric] = median(ts)
	}
	return nil
}

// isolatePersist times what a finished job writes to the job store:
// PutTrace + PutJob + PutReport + PutTimeline.
func isolatePersist(dir string, traces []isoTrace, refFor func(string) *reference, m map[string]float64) error {
	store, err := jobs.OpenStore(dir)
	if err != nil {
		return err
	}
	var ts []float64
	for r := 0; r < 3; r++ {
		for i, t := range traces {
			id := fmt.Sprintf("iso-persist-%d-%d", r, i)
			body := t.bin
			if body == nil {
				body = t.text
			}
			now := time.Now().UTC()
			j := &jobs.Job{ID: id, Trace: t.name, State: jobs.StateDone, Attempts: 1, SubmittedAt: now, StartedAt: now, FinishedAt: now}
			tl := obs.Timeline{Trace: id, Spans: []obs.SpanRecord{{ID: 1, Name: "job", Start: now, Seconds: 0.5}}}
			start := time.Now()
			if err := store.PutTrace(id, body); err != nil {
				return err
			}
			if err := store.PutJob(j); err != nil {
				return err
			}
			if err := store.PutReport(id, refFor(t.name).Report); err != nil {
				return err
			}
			if err := store.PutTimeline(id, tl); err != nil {
				return err
			}
			ts = append(ts, ms(time.Since(start)))
		}
	}
	m["jobs.persist_ms"] = median(ts)
	return nil
}

// isolateParse times each parser entry point: ReadBinary and
// ParseTextParallel over the corpus, StreamParser over the tiled
// stream body fed in 64 KiB writes (the HTTP handler's cadence). A
// parse error fails the pass.
func isolateParse(corpus []*corpusTrace, stream *streamTrace, m map[string]float64) error {
	workers := runtime.GOMAXPROCS(0)
	type acc struct {
		ts     []float64
		bytes  int64
		secs   float64
		allocs []float64
	}
	formats := map[string]*acc{formatBinary: {}, formatText: {}, formatStream: {}}
	timeParse := func(f string, n int, fn func() error) error {
		a := mallocs()
		start := time.Now()
		if err := fn(); err != nil {
			return fmt.Errorf("%s parse: %w", f, err)
		}
		d := time.Since(start)
		x := formats[f]
		x.ts = append(x.ts, ms(d))
		x.bytes += int64(n)
		x.secs += d.Seconds()
		x.allocs = append(x.allocs, float64(mallocs()-a))
		return nil
	}
	for _, ct := range corpus {
		bin, err := binaryWithJobID(ct.Log, ct.Log.Header.JobID)
		if err != nil {
			return err
		}
		text := bytes.Join(ct.textParts(ct.Log.Header.JobID), nil)
		for r := 0; r < 2; r++ {
			if err := timeParse(formatBinary, len(bin), func() error {
				_, err := darshan.ReadBinary(bytes.NewReader(bin))
				return err
			}); err != nil {
				return err
			}
			if err := timeParse(formatText, len(text), func() error {
				_, err := darshan.ParseTextParallel(text, workers)
				return err
			}); err != nil {
				return err
			}
		}
	}
	body := append([]byte(nil), stream.render(1)...)
	for r := 0; r < 3; r++ {
		if err := timeParse(formatStream, len(body), func() error {
			sp := darshan.NewStreamParser(darshan.StreamOptions{Workers: workers})
			for off := 0; off < len(body); off += 64 << 10 {
				end := min(off+64<<10, len(body))
				if _, err := sp.Write(body[off:end]); err != nil {
					return err
				}
			}
			_, _, err := sp.Finish()
			return err
		}); err != nil {
			return err
		}
	}
	var allocs []float64
	for _, f := range []string{formatBinary, formatText, formatStream} {
		x := formats[f]
		m["darshan.parse_ms."+f] = median(x.ts)
		m["darshan.parse_mb_s."+f] = float64(x.bytes) / 1e6 / x.secs
		allocs = append(allocs, x.allocs...)
	}
	m["darshan.parse_allocs"] = mean(allocs)
	return nil
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
