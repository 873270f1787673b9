package main

import (
	"bufio"
	"bytes"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"ion/internal/jobs"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// percentile interpolates linearly between the closest ranks.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// summary is the per-phase bookkeeping shared by both metric sets.
type summary struct {
	Attempted, OK int
	Diagnosis     []float64 // ms, successful jobs
	Acks          []float64 // ms, accepted submissions
	Reads         []float64 // ms, every GET in the window
}

func summarize(p *phase) summary {
	s := summary{Attempted: len(p.Results)}
	for _, r := range p.Reads {
		s.Reads = append(s.Reads, ms(r.D))
	}
	for _, r := range p.Results {
		if r.JobID != "" {
			s.Acks = append(s.Acks, ms(r.Ack))
		}
		if r.OK {
			s.OK++
			s.Diagnosis = append(s.Diagnosis, ms(r.Diagnosis))
		}
	}
	return s
}

// endToEnd computes the metrics a user of the service sees, from an
// untraced phase. The latency percentiles of diagnoses and
// submissions are per-layer figures (perLayer): on a shared 2-vCPU
// host they follow the hypervisor's steal, not the program (README.md,
// "Noisy host"), further than any bound a regression gate could use.
func endToEnd(spec workloadSpec, window time.Duration, p *phase) metricSet {
	s := summarize(p)
	m := metricSet{}
	setup := make([]float64, len(p.Setup))
	for i, d := range p.Setup {
		setup[i] = d.Seconds()
	}
	m.set("setup_s", median(setup), "s")
	m.set("read_p50_ms", percentile(s.Reads, 0.5), "ms")
	inSLO, tokens := 0, 0
	var last time.Time
	for _, r := range p.Results {
		if !r.OK {
			continue
		}
		if r.Diagnosis <= spec.SLO {
			inSLO++
		}
		if r.Done.After(last) {
			last = r.Done
		}
		if c := r.Job.Cost; c != nil {
			tokens += c.TokensIn + c.TokensOut
		}
	}
	ok := float64(s.OK)
	m.set("slo_ratio", float64(inSLO)/float64(s.Attempted), "ratio")
	m.set("jobs_per_s", ok/last.Sub(p.Start).Seconds(), "1/s")
	m.set("cpu_ms_per_job", ms(p.CPU)/ok, "ms")
	m.set("alloc_mb_per_job", float64(p.Alloc)/1e6/ok, "MB")
	m.set("peak_heap_mb", float64(p.PeakHeap)/1e6, "MB")
	m.set("llm_tokens_per_job", float64(tokens)/ok, "tokens")
	return m
}

// perLayer computes the traced run's per-layer figures from the traced
// phase t, the untraced phase u of the same invocation, and the
// layer-isolation figures iso.
func perLayer(spec workloadSpec, t, u *phase, iso map[string]float64) metricSet {
	m := metricSet{}
	st := summarize(t)
	su := summarize(u)
	ok := float64(st.OK)

	m.set("webui.submit_ms.p50", percentile(st.Acks, 0.5), "ms")
	m.set("webui.submit_ms.p95", percentile(st.Acks, 0.95), "ms")
	var reportGets []float64
	for _, r := range t.Reads {
		if r.Route == "/api/jobs/{id}/report" {
			reportGets = append(reportGets, ms(r.D))
		}
	}
	m.set("webui.report_get_ms", median(reportGets), "ms")
	for _, k := range []string{"webui.list_ms", "webui.job_page_ms", "webui.metrics_scrape_ms", "webui.dashboard_ms"} {
		m.set(k, iso[k], "ms")
	}

	var waits []float64
	verbatim := 0
	jobsInRun := map[string]bool{}
	var parseMS []float64
	for _, r := range t.Results {
		if !r.OK {
			continue
		}
		jobsInRun[r.JobID] = true
		if r.HasQueueWait {
			waits = append(waits, ms(r.QueueWait))
		}
		if r.Job.ReusedFrom != nil && r.Job.ReusedFrom.Mode == jobs.ReuseSemanticHit {
			verbatim++
		}
		// Whole-body submissions are parsed twice: once by
		// Service.Submit to validate, once by the worker.
		switch r.Sub.Format {
		case formatStream:
			parseMS = append(parseMS, iso["darshan.parse_ms.stream"])
		default:
			parseMS = append(parseMS, 2*iso["darshan.parse_ms."+r.Sub.Format])
		}
	}
	m.set("jobs.queue_wait_ms.p50", percentile(waits, 0.5), "ms")
	m.set("jobs.queue_wait_ms.p95", percentile(waits, 0.95), "ms")
	var busy, depth []float64
	for _, s := range t.Stats {
		busy = append(busy, float64(s.Busy))
		depth = append(depth, float64(s.QueueDepth))
	}
	m.set("jobs.busy_workers_mean", mean(busy), "count")
	m.set("jobs.queue_depth_max", maxOf(depth), "count")
	m.set("jobs.open_ms", iso["jobs.open_ms"], "ms")
	m.set("jobs.persist_ms", iso["jobs.persist_ms"], "ms")
	m.set("jobs.store_kb_per_job", float64(t.StoreGrow)/1024/ok, "KiB")
	m.set("jobs.dedup_hits", float64(t.After.CacheHits-t.Before.CacheHits), "count")
	m.set("jobs.retries", float64(t.After.Retried-t.Before.Retried), "count")

	for _, f := range []string{formatBinary, formatText, formatStream} {
		m.set("darshan.parse_ms."+f, iso["darshan.parse_ms."+f], "ms")
		m.set("darshan.parse_mb_s."+f, iso["darshan.parse_mb_s."+f], "MB/s")
	}
	m.set("darshan.parse_allocs", iso["darshan.parse_allocs"], "count")
	shards := promValue(t.Metrics, "ion_parse_shards_total") - promValue(t.MetricsBefore, "ion_parse_shards_total")
	m.set("darshan.shards_per_job", shards/ok, "count")
	m.set("darshan.stream_stalls", promValue(t.Metrics, "ion_stream_backpressure_total")-promValue(t.MetricsBefore, "ion_stream_backpressure_total"), "count")

	m.set("extractor.extract_ms", iso["extractor.extract_ms"], "ms")
	m.set("extractor.csv_mb_per_job", iso["extractor.csv_mb_per_job"], "MB")
	m.set("extractor.allocs_per_job", iso["extractor.allocs_per_job"], "count")

	m.set("semcache.signature_us", iso["semcache.signature_us"], "us")
	m.set("semcache.lookup_us", iso["semcache.lookup_us"], "us")
	entries := iso["semcache.entries"]
	if spec.SemCache {
		entries = float64(t.SemAfter.Entries)
	}
	m.set("semcache.entries", entries, "count")
	lookups := float64(t.SemAfter.Lookups - t.SemBefore.Lookups)
	m.set("semcache.hit_ratio", ratio(float64(t.SemAfter.Hits-t.SemBefore.Hits), lookups), "ratio")
	m.set("semcache.conditioned_ratio", ratio(float64(t.SemAfter.Conditioned-t.SemBefore.Conditioned), lookups), "ratio")

	m.set("ion.analyze_ms", iso["ion.analyze_ms"], "ms")
	m.set("ion.self_ms", iso["ion.self_ms"], "ms")
	m.set("ion.prompt_tokens_per_call", iso["ion.prompt_tokens_per_call"], "tokens")

	var calls []float64
	var in, out int
	for _, c := range t.Rec.named("llm.complete") {
		if jobsInRun[c.Job] {
			calls = append(calls, ms(c.dur()))
			in += c.TokensIn
			out += c.TokensOut
		}
	}
	m.set("llm.calls_per_job", float64(len(calls))/ok, "count")
	m.set("llm.complete_ms.p50", percentile(calls, 0.5), "ms")
	m.set("llm.complete_ms.p95", percentile(calls, 0.95), "ms")
	m.set("llm.tokens_in_per_job", float64(in)/ok, "tokens")
	m.set("llm.tokens_out_per_job", float64(out)/ok, "tokens")

	m.set("ledger.append_us", iso["ledger.append_us"], "us")
	m.set("ledger.entries", float64(t.LedgerLen), "count")

	m.set("quality.score_ms", iso["quality.score_ms"], "ms")
	m.set("quality.put_us.p50", iso["quality.put_us.p50"], "us")
	m.set("quality.put_us.max", iso["quality.put_us.max"], "us")
	shadows := 0
	for job := range t.ShadowJobs {
		if jobsInRun[strings.TrimSuffix(job, "-shadow")] {
			shadows++
		}
	}
	m.set("quality.shadow_runs", float64(shadows), "count")
	m.set("quality.journal_mb", float64(t.QualityBytes)/1e6, "MB")

	m.set("bench.gen_lag_p95_ms", percentile(durationsMS(t.Lags), 0.95), "ms")
	tracedP50 := percentile(st.Diagnosis, 0.5)
	m.set("bench.trace_overhead_ratio", ratio(tracedP50, percentile(su.Diagnosis, 0.5)), "ratio")
	m.set("bench.failed_ratio", ratio(float64(su.Attempted-su.OK), float64(su.Attempted)), "ratio")
	// The untraced phase's latency percentiles (see endToEnd).
	m.set("diagnosis_p50_ms", percentile(su.Diagnosis, 0.5), "ms")
	m.set("diagnosis_p95_ms", percentile(su.Diagnosis, 0.95), "ms")
	m.set("ack_p50_ms", percentile(su.Acks, 0.5), "ms")
	m.set("ack_p95_ms", percentile(su.Acks, 0.95), "ms")
	m.set("read_p95_ms", percentile(su.Reads, 0.95), "ms")
	m.set("bench.diagnosis_samples", float64(len(st.Diagnosis)), "count")

	// The blocking steps of one diagnosis, each at its per-job self
	// time, against the traced diagnosis median.
	steps := map[string]float64{
		"queue_wait": percentile(waits, 0.5),
		"parse":      mean(parseMS),
		"extract":    iso["extractor.extract_ms"],
		"analyze":    iso["ion.analyze_ms"] * (1 - ratio(float64(verbatim), ok)),
		"quality":    iso["quality.score_ms"],
		"persist":    iso["jobs.persist_ms"],
	}
	if spec.SemCache {
		steps["semcache"] = (iso["semcache.signature_us"] + iso["semcache.lookup_us"]) / 1000
	}
	sum := 0.0
	for _, k := range []string{"queue_wait", "parse", "extract", "semcache", "analyze", "quality", "persist"} {
		m.set("bench.blocking."+k+"_ms", steps[k], "ms")
		sum += steps[k]
	}
	m.set("bench.diagnosis_p50_ms", tracedP50, "ms")
	m.set("bench.blocking_sum_ms", sum, "ms")
	m.set("bench.uncovered_ms", tracedP50-sum, "ms")
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// promValue sums the samples of one metric family in a Prometheus text
// exposition.
func promValue(exposition []byte, name string) float64 {
	var total float64
	sc := bufio.NewScanner(bytes.NewReader(exposition))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		fields := strings.Fields(line)
		if v, err := strconv.ParseFloat(fields[len(fields)-1], 64); err == nil {
			total += v
		}
	}
	return total
}
