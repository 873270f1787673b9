package jobs

import (
	"bytes"
	"context"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	mathrand "math/rand"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ion/internal/darshan"
	"ion/internal/extractor"
	"ion/internal/ion"
	"ion/internal/issue"
	"ion/internal/llm"
	"ion/internal/llm/ledger"
	"ion/internal/obs"
	"ion/internal/quality"
	"ion/internal/semcache"
)

// Config assembles a Service.
type Config struct {
	// Dir is the data directory for the persistent store (required).
	Dir string
	// Client is the language-model backend analyses run against
	// (required).
	Client llm.Client
	// Framework optionally overrides the analysis pipeline; nil builds
	// a default ion.Framework over Client.
	Framework *ion.Framework
	// Workers is the worker-pool size; 0 or negative means the default
	// (2). A paused pool for tests is requested explicitly via Paused.
	Workers int
	// Paused starts the service with no workers: jobs queue and persist
	// but never run. Used by tests and by recovery drills.
	Paused bool
	// QueueDepth bounds queued-but-unstarted jobs; Submit returns
	// ErrQueueFull beyond it. 0 or negative means the default (16).
	QueueDepth int
	// JobTimeout bounds one analysis attempt; 0 means the default (5m).
	JobTimeout time.Duration
	// MaxAttempts bounds analysis attempts per job, counting the first;
	// 0 means the default (3).
	MaxAttempts int
	// RetryDelay is the base backoff before the second attempt, doubled
	// per retry with ±50% jitter; 0 means the default (500ms).
	RetryDelay time.Duration
	// MaxRetryDelay caps the backoff; 0 means the default (10s).
	MaxRetryDelay time.Duration
	// ParseWorkers bounds the shard count when parsing trace text in
	// parallel (both the whole-body and streaming paths); 0 or negative
	// means GOMAXPROCS.
	ParseWorkers int
	// StreamMaxBuffer bounds the total bytes buffered across all
	// in-flight streaming uploads; SubmitStream sheds load with
	// ErrStreamBusy beyond it. 0 means the default (256 MiB).
	StreamMaxBuffer int64
	// ExtractCacheBytes bounds the LRU cache of extraction outputs
	// keyed by trace content hash; a re-submitted or re-queued trace
	// whose extraction is cached skips parse+extract entirely. 0 means
	// the default (64 MiB); negative disables the cache.
	ExtractCacheBytes int64
	// SemCache, when non-nil, enables semantic reuse: after the
	// exact-hash dedup misses, a completed diagnosis whose counter
	// signature is similar enough to the new trace's is served
	// verbatim (above SemReuseThreshold) or injected into the LLM
	// prompts as retrieved context (above SemConditionThreshold).
	// Completed full runs are indexed back into the store.
	SemCache *semcache.Store
	// SemReuseThreshold is the cosine similarity at or above which a
	// neighbor's report is served verbatim; 0 means the default
	// (0.995). Set above 1 to disable the verbatim tier.
	SemReuseThreshold float64
	// SemConditionThreshold is the cosine similarity at or above which
	// a neighbor's conclusions condition the LLM prompts; 0 means the
	// default (0.90). Set above 1 to disable the conditioning tier.
	SemConditionThreshold float64
	// Quality, when non-nil, enables the diagnosis-quality observatory:
	// every successful diagnosis is scored against the deterministic
	// Drishti triggers (and iongen ground-truth labels when the trace
	// name identifies a generated workload), the scorecard is journaled
	// in this store, and the agreement/flip gauges are refreshed.
	Quality *quality.Store
	// ShadowSampleRate is the fraction of semcache-reused and
	// conditioned jobs whose diagnosis is re-run through full fan-out
	// in the background to measure verdict flips. 0 disables shadow
	// re-runs; values above 1 shadow everything.
	ShadowSampleRate float64
	// ShadowConcurrency bounds concurrent shadow re-runs; further
	// candidates are skipped, not queued. 0 means the default (1).
	ShadowConcurrency int
	// QualityMinSamples is the per-issue sample count below which the
	// ion_verdict_agreement_ratio gauge self-gates to 1.0 (same policy
	// as the semcache hit-ratio gauge), keeping the drift alert quiet
	// until there is enough traffic to judge. 0 means the default (20).
	QualityMinSamples int
	// Ledger, when non-nil, is the LLM audit ledger the service reads
	// for per-job cost attribution (Job.Cost) and cumulative LLM totals
	// in Stats. The ledger is written by the ledger.Wrap client, which
	// must wrap the same Client analyses run against.
	Ledger *ledger.Store
	// Obs receives the service's metrics: queue/worker gauges, outcome
	// counters, and per-stage pipeline latency histograms. nil uses a
	// private registry (instrumentation always runs, nothing is
	// exported). The gauges read the same fields Stats reports, so
	// /metrics and /api/stats cannot disagree.
	Obs *obs.Registry
	// OnTimeline, when set, receives every completed job's span timeline
	// (after it is persisted), with Timeline.Trace set to the job id.
	// The flight recorder's tail-sampler hangs off this hook. Called
	// from worker goroutines; must be cheap and concurrency-safe.
	OnTimeline func(obs.Timeline)
	// Logger receives structured job-lifecycle logs with job id, trace
	// hash, and attempt attributes. nil discards.
	Logger *slog.Logger
}

func (c *Config) applyDefaults() {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.Paused {
		c.Workers = 0
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 5 * time.Minute
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryDelay <= 0 {
		c.RetryDelay = 500 * time.Millisecond
	}
	if c.MaxRetryDelay <= 0 {
		c.MaxRetryDelay = 10 * time.Second
	}
	if c.ParseWorkers <= 0 {
		c.ParseWorkers = runtime.GOMAXPROCS(0)
	}
	if c.StreamMaxBuffer == 0 {
		c.StreamMaxBuffer = defaultStreamMaxBuffer
	}
	if c.ExtractCacheBytes == 0 {
		c.ExtractCacheBytes = defaultExtractCacheBytes
	}
	if c.SemReuseThreshold == 0 {
		c.SemReuseThreshold = defaultSemReuseThreshold
	}
	if c.SemConditionThreshold == 0 {
		c.SemConditionThreshold = defaultSemConditionThreshold
	}
	if c.ShadowConcurrency <= 0 {
		c.ShadowConcurrency = 1
	}
	if c.QualityMinSamples <= 0 {
		c.QualityMinSamples = qualityMinSamples
	}
	if c.Obs == nil {
		c.Obs = obs.NewRegistry()
	}
	if c.Logger == nil {
		c.Logger = obs.NopLogger()
	}
}

// Service is the asynchronous analysis engine: a persistent job store,
// a bounded queue, and a pool of workers running the ion pipeline.
type Service struct {
	cfg   Config
	store *Store
	fw    *ion.Framework
	obs   *obs.Registry
	log   *slog.Logger
	cache *extractCache   // nil when disabled
	sem   *semcache.Store // nil when semantic reuse is disabled
	// ledger is the LLM audit store cost attribution reads from (nil
	// when no ledger is configured).
	ledger *ledger.Store
	// semSim observes the best-match cosine similarity of every
	// semantic lookup (nil when semantic reuse is disabled).
	semSim *obs.Histogram
	// qual persists per-job scorecards (nil when quality tracking is
	// disabled).
	qual *quality.Store

	baseCtx context.Context // canceled to abort in-flight analyses
	abort   context.CancelFunc
	stop    chan struct{} // closed to tell idle workers to exit
	queue   chan string   // job ids awaiting a worker
	wg      sync.WaitGroup

	// Shadow re-run machinery: a non-blocking semaphore bounds
	// concurrency, a dedicated context cancels in-flight shadows at
	// Close (they are best-effort), and the WaitGroup lets Close drain
	// them before the caller closes the stores they write to.
	shadowSem    chan struct{}
	shadowCtx    context.Context
	shadowCancel context.CancelFunc
	shadowWG     sync.WaitGroup
	shadowSkips  *obs.Counter

	// Parse/stream instrumentation (see registerMetrics).
	parseShards    *obs.Counter
	parseMBps      *obs.Gauge
	streamSubs     *obs.Counter
	streamBytes    *obs.Counter
	streamStalls   *obs.Counter
	streamRejected *obs.Counter
	streamInflight atomic.Int64 // bytes reserved by in-flight streams

	mu     sync.Mutex
	jobs   map[string]*Job
	done   map[string]chan struct{} // closed when the job reaches a terminal state
	byHash map[string]string        // trace hash → job id (dedup cache)
	closed bool
	busy   int

	// preParsed hands the parse done at admission (whole-body
	// validation or the streamed upload) to the worker that runs the
	// job, so a job's trace is parsed once. Keyed by job id; an entry
	// lives from admit until a worker picks the job up, and at most
	// maxPreParsed wait at once.
	preParsed map[string]parsedTrace

	submitted, completed, failed, retried, cacheHits, recovered int64
	semHits, semConditioned, semAdopted                         int64
}

// defaultStreamMaxBuffer bounds in-flight streaming-upload memory.
const defaultStreamMaxBuffer = 256 << 20

// maxPreParsed bounds how many admission-time parses wait for their
// worker; jobs admitted beyond it are parsed again by the worker.
const maxPreParsed = 8

// parsedTrace is a trace parsed at admission. start and end time the
// whole-body parse for the job's timeline; a streamed parse overlapped
// the upload and leaves them zero.
type parsedTrace struct {
	log        *darshan.Log
	start, end time.Time
}

// Open starts a Service over cfg.Dir, recovering any jobs a previous
// process left queued or in flight (they restart as queued).
func Open(cfg Config) (*Service, error) {
	if cfg.Client == nil {
		return nil, fmt.Errorf("jobs: Config.Client is required")
	}
	cfg.applyDefaults()
	store, err := OpenStore(cfg.Dir)
	if err != nil {
		return nil, err
	}
	fw := cfg.Framework
	if fw == nil {
		fw, err = ion.New(ion.Config{Client: cfg.Client})
		if err != nil {
			return nil, err
		}
	}

	existing, err := store.Jobs()
	if err != nil {
		return nil, err
	}
	var pending []*Job
	for _, j := range existing {
		if !j.State.Terminal() {
			pending = append(pending, j)
		}
	}
	// Oldest first, so recovered work keeps its submission order.
	sort.Slice(pending, func(i, k int) bool {
		return pending[i].SubmittedAt.Before(pending[k].SubmittedAt)
	})

	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:     cfg,
		store:   store,
		fw:      fw,
		obs:     cfg.Obs,
		log:     cfg.Logger,
		cache:   newExtractCache(cfg.ExtractCacheBytes),
		sem:     cfg.SemCache,
		ledger:  cfg.Ledger,
		qual:    cfg.Quality,
		baseCtx: ctx,
		abort:   cancel,
		stop:    make(chan struct{}),
		// Recovered jobs must all fit alongside a full queue.
		queue:     make(chan string, cfg.QueueDepth+len(pending)),
		jobs:      make(map[string]*Job, len(existing)),
		done:      make(map[string]chan struct{}, len(existing)),
		byHash:    make(map[string]string, len(existing)),
		preParsed: make(map[string]parsedTrace),
	}
	s.shadowCtx, s.shadowCancel = context.WithCancel(ctx)
	s.shadowSem = make(chan struct{}, cfg.ShadowConcurrency)
	for _, j := range existing {
		s.jobs[j.ID] = j
		ch := make(chan struct{})
		if j.State.Terminal() {
			close(ch)
		}
		s.done[j.ID] = ch
		// Completed jobs seed the dedup cache; non-terminal jobs join it
		// too so a resubmission coalesces onto the recovered job.
		if j.State != StateFailed && j.Hash != "" {
			s.byHash[j.Hash] = j.ID
		}
	}
	for _, j := range pending {
		j.State = StateQueued
		j.Error = ""
		if err := store.PutJob(j); err != nil {
			cancel()
			return nil, err
		}
		s.queue <- j.ID
		s.recovered++
	}

	if s.recovered > 0 {
		s.log.Info("recovered interrupted jobs", "count", s.recovered)
	}
	s.registerMetrics()
	// The replayed scorecard journal already carries agreement and flip
	// history; publish it so the gauges are correct from the first
	// scrape after a restart.
	s.refreshQualityMetrics()
	s.log.Info("job service open", "dir", cfg.Dir, "workers", cfg.Workers,
		"queue_capacity", cfg.QueueDepth, "jobs", len(existing))

	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// registerMetrics exposes the service state through the registry as
// callbacks, so /metrics always reflects the same fields Stats returns.
// The callbacks run at exposition time and take s.mu via Stats; nothing
// in the service calls the registry while holding s.mu, so there is no
// lock cycle.
func (s *Service) registerMetrics() {
	stat := func(get func(Stats) float64) func() float64 {
		return func() float64 { return get(s.Stats()) }
	}
	s.obs.GaugeFunc("ion_jobs_queue_depth", "Jobs queued but not yet running.",
		stat(func(st Stats) float64 { return float64(st.QueueDepth) }))
	s.obs.GaugeFunc("ion_jobs_queue_capacity", "Queue bound beyond which submissions shed load.",
		stat(func(st Stats) float64 { return float64(st.QueueCapacity) }))
	s.obs.GaugeFunc("ion_jobs_busy_workers", "Workers currently running a job.",
		stat(func(st Stats) float64 { return float64(st.Busy) }))
	s.obs.GaugeFunc("ion_jobs_workers", "Configured worker-pool size.",
		stat(func(st Stats) float64 { return float64(st.Workers) }))
	s.obs.CounterFunc("ion_jobs_submitted_total", "Accepted submissions, dedup hits included.",
		stat(func(st Stats) float64 { return float64(st.Submitted) }))
	s.obs.CounterFunc("ion_jobs_completed_total", "Jobs finished successfully.",
		stat(func(st Stats) float64 { return float64(st.Completed) }))
	s.obs.CounterFunc("ion_jobs_failed_total", "Jobs that exhausted their attempts.",
		stat(func(st Stats) float64 { return float64(st.Failed) }))
	s.obs.CounterFunc("ion_jobs_retries_total", "Analysis retry attempts.",
		stat(func(st Stats) float64 { return float64(st.Retried) }))
	s.obs.CounterFunc("ion_jobs_cache_hits_total", "Submissions answered from the dedup cache.",
		stat(func(st Stats) float64 { return float64(st.CacheHits) }))
	s.obs.CounterFunc("ion_jobs_recovered_total", "Jobs re-queued from disk at startup.",
		stat(func(st Stats) float64 { return float64(st.Recovered) }))
	// Derived SLO gauges: exported as ready-made ratios so the alert
	// rules and the dashboard need no division of their own, and every
	// consumer computes them from the same Stats methods.
	s.obs.GaugeFunc("ion_jobs_failure_ratio", "Failed / (Completed+Failed): fraction of finished jobs that failed.",
		stat(func(st Stats) float64 { return st.FailureRatio() }))
	s.obs.GaugeFunc("ion_jobs_utilization", "Busy / Workers: fraction of the worker pool in use.",
		stat(func(st Stats) float64 { return st.Utilization() }))
	s.obs.GaugeFunc("ion_jobs_queue_utilization", "QueueDepth / QueueCapacity: how close submissions are to shedding load.",
		stat(func(st Stats) float64 { return st.QueueUtilization() }))
	s.obs.GaugeFunc("ion_extract_cache_hit_ratio", "Extract-cache hits / (hits+misses) since start.",
		func() float64 {
			h, m := float64(s.cache.hitCount()), float64(s.cache.missCount())
			if h+m == 0 {
				return 0
			}
			return h / (h + m)
		})
	s.obs.CounterFunc("ion_extract_cache_hits_total", "Job runs that skipped parse+extract via the extract cache.",
		func() float64 { return float64(s.cache.hitCount()) })
	s.obs.CounterFunc("ion_extract_cache_misses_total", "Job runs that had to parse and extract their trace.",
		func() float64 { return float64(s.cache.missCount()) })
	s.obs.GaugeFunc("ion_extract_cache_bytes", "Estimated bytes retained by the extract cache.",
		func() float64 { return float64(s.cache.bytes()) })
	s.obs.GaugeFunc("ion_extract_cache_entries", "Extraction outputs currently cached.",
		func() float64 { return float64(s.cache.len()) })

	s.parseShards = s.obs.Counter("ion_parse_shards_total",
		"Trace-parse shards dispatched to the parallel parser.")
	s.parseMBps = s.obs.Gauge("ion_parse_mb_per_s",
		"Throughput of the most recent trace parse, in MB/s.")
	s.obs.GaugeFunc("ion_parse_workers", "Configured parse-shard concurrency bound.",
		func() float64 { return float64(s.cfg.ParseWorkers) })
	s.streamSubs = s.obs.Counter("ion_stream_submissions_total",
		"Streaming uploads accepted for incremental parsing.")
	s.streamBytes = s.obs.Counter("ion_stream_bytes_total",
		"Body bytes received over the streaming ingestion path.")
	s.streamStalls = s.obs.Counter("ion_stream_backpressure_total",
		"Times a streaming upload blocked waiting for a parse worker.")
	s.streamRejected = s.obs.Counter("ion_stream_rejected_total",
		"Streaming uploads shed because the buffer budget was exhausted.")
	s.obs.GaugeFunc("ion_stream_inflight_bytes", "Bytes currently reserved by in-flight streaming uploads.",
		func() float64 { return float64(s.streamInflight.Load()) })

	if s.sem != nil {
		s.obs.CounterFunc("ion_semcache_hits_total", "Jobs served verbatim from the semantic cache (zero LLM calls).",
			func() float64 { return float64(s.sem.Stats().Hits) })
		s.obs.CounterFunc("ion_semcache_conditioned_total", "Jobs whose prompts were conditioned on a similar prior diagnosis.",
			func() float64 { return float64(s.sem.Stats().Conditioned) })
		s.obs.CounterFunc("ion_semcache_misses_total", "Jobs that found no usable semantic neighbor and ran full fan-out.",
			func() float64 { return float64(s.sem.Stats().Misses) })
		s.obs.GaugeFunc("ion_semcache_entries", "Diagnoses currently indexed in the semantic cache.",
			func() float64 { return float64(s.sem.Len()) })
		s.obs.GaugeFunc("ion_semcache_bytes", "Estimated bytes retained by the semantic cache.",
			func() float64 { return float64(s.sem.Bytes()) })
		// The ratio self-gates on traffic: below semHitRatioMinLookups
		// policy outcomes it reports 1.0, so the collapse alert (the
		// rule grammar has no conjunctions to express "and traffic is
		// high") stays quiet on idle or freshly started services.
		s.obs.GaugeFunc("ion_semcache_hit_ratio", "Semantic hits+conditioned over lookups; 1.0 until enough traffic to judge.",
			func() float64 {
				st := s.sem.Stats()
				total := st.Hits + st.Conditioned + st.Misses
				if total < semHitRatioMinLookups {
					return 1
				}
				return float64(st.Hits+st.Conditioned) / float64(total)
			})
		s.semSim = s.obs.Histogram("ion_semcache_similarity",
			"Best-match cosine similarity per semantic lookup.",
			[]float64{0.5, 0.6, 0.7, 0.8, 0.85, 0.9, 0.95, 0.98, 0.99, 0.995, 1})
		s.obs.CounterFunc("ion_semcache_adopted_verdicts_total",
			"Per-issue verdicts conditioned runs adopted from their neighbor without fresh LLM calls.",
			stat(func(st Stats) float64 { return float64(st.AdoptedVerdicts) }))
	}

	if s.qual != nil {
		// The labeled gauges are created eagerly for every taxonomy
		// issue and reuse mode (GaugeFunc carries no labels), so the
		// families appear in /metrics before the first diagnosis;
		// refreshQualityMetrics re-publishes them after every scorecard
		// write. Below QualityMinSamples per-issue comparisons the
		// agreement gauge self-gates to 1.0, like the semcache
		// hit-ratio gauge, so VerdictDriftHigh stays quiet on idle or
		// freshly started services.
		for _, id := range issue.All {
			s.obs.Gauge("ion_verdict_agreement_ratio",
				"LLM/Drishti verdict agreement per issue; 1.0 until enough samples to judge.",
				obs.L("issue", string(id))).Set(1)
		}
		for _, m := range []quality.Mode{quality.ModeVerbatim, quality.ModeConditioned} {
			s.obs.Gauge("ion_semcache_flip_ratio",
				"Fraction of shadow-rerun reused diagnoses whose verdicts flipped, per reuse mode.",
				obs.L("mode", string(m))).Set(0)
		}
		s.shadowSkips = s.obs.Counter("ion_shadow_skips_total",
			"Shadow re-run candidates skipped because of queue pressure or the concurrency bound.")
		s.obs.GaugeFunc("ion_quality_scorecards", "Scorecards currently retained by the quality store.",
			func() float64 { return float64(s.qual.Len()) })
	}
}

// refreshQualityMetrics republishes the aggregate quality gauges from
// the scorecard store. Called after every scorecard write and once at
// Open (so replayed history survives restarts).
func (s *Service) refreshQualityMetrics() {
	if s.qual == nil {
		return
	}
	ag := s.qual.IssueAgreement()
	for _, id := range issue.All {
		v := 1.0
		if a := ag[id]; a.Total >= s.cfg.QualityMinSamples {
			v = a.Ratio()
		}
		s.obs.Gauge("ion_verdict_agreement_ratio",
			"LLM/Drishti verdict agreement per issue; 1.0 until enough samples to judge.",
			obs.L("issue", string(id))).Set(v)
	}
	fs := s.qual.FlipStats()
	for _, m := range []quality.Mode{quality.ModeVerbatim, quality.ModeConditioned} {
		s.obs.Gauge("ion_semcache_flip_ratio",
			"Fraction of shadow-rerun reused diagnoses whose verdicts flipped, per reuse mode.",
			obs.L("mode", string(m))).Set(fs[m].Ratio())
	}
}

// Store exposes the underlying store (read-only use by the web layer).
func (s *Service) Store() *Store { return s.store }

// Draining reports whether Close has begun: the service no longer
// accepts submissions and is waiting for in-flight work. The readiness
// endpoint turns this into a 503 so load balancers stop routing here.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Submit accepts a Darshan trace (binary container or darshan-parser
// text) for analysis. name is a display label. The returned bool is
// true when the submission was answered from the dedup cache — an
// identical trace was already submitted — in which case the returned
// job is the cached one. Returns ErrQueueFull when the queue is at
// capacity, ErrBadTrace when the bytes do not parse, ErrClosed after
// shutdown has begun.
func (s *Service) Submit(name string, trace []byte) (Job, bool, error) {
	start := time.Now()
	log, err := s.parseTrace(context.Background(), trace)
	if err != nil {
		return Job{}, false, err
	}
	pre := parsedTrace{log: log, start: start, end: time.Now()}
	sum := sha256.Sum256(trace)
	hash := hex.EncodeToString(sum[:])
	ingest := &Ingest{Mode: IngestBody, Bytes: int64(len(trace))}
	return s.admit(name, hash, trace, ingest, pre)
}

// admit runs the post-validation half of a submission — dedup lookup,
// queue admission, persistence, enqueue — shared by the whole-body and
// streaming paths. hash is the hex SHA-256 of trace; pre is its parse,
// parked for the worker when a new job is created.
func (s *Service) admit(name, hash string, trace []byte, ingest *Ingest, pre parsedTrace) (Job, bool, error) {
	if name == "" {
		name = "trace-" + hash[:8]
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Job{}, false, ErrClosed
	}
	if id, ok := s.byHash[hash]; ok {
		if j := s.jobs[id]; j != nil && j.State != StateFailed {
			s.submitted++
			s.cacheHits++
			s.log.Info("submission answered from dedup cache",
				"job", id, "trace", name, "hash", hash[:12])
			return *j, true, nil
		}
	}
	if len(s.queue) >= s.cfg.QueueDepth {
		return Job{}, false, ErrQueueFull
	}
	j := &Job{
		ID:          newID(),
		Trace:       name,
		Hash:        hash,
		State:       StateQueued,
		Ingest:      ingest,
		SubmittedAt: time.Now().UTC(),
	}
	if err := s.store.PutTrace(j.ID, trace); err != nil {
		return Job{}, false, err
	}
	if err := s.store.PutJob(j); err != nil {
		return Job{}, false, err
	}
	s.jobs[j.ID] = j
	s.done[j.ID] = make(chan struct{})
	s.byHash[hash] = j.ID
	s.submitted++
	if len(s.preParsed) < maxPreParsed {
		s.preParsed[j.ID] = pre
	}
	select {
	case s.queue <- j.ID:
	default:
		// Unreachable: the depth check above holds s.mu and workers only
		// drain the channel, but fail closed rather than block.
		delete(s.jobs, j.ID)
		delete(s.done, j.ID)
		delete(s.byHash, hash)
		delete(s.preParsed, j.ID)
		s.submitted--
		return Job{}, false, ErrQueueFull
	}
	s.log.Info("job submitted", "job", j.ID, "trace", name, "hash", hash[:12],
		"queue_depth", len(s.queue))
	return *j, false, nil
}

// Get returns a snapshot of one job.
func (s *Service) Get(id string) (Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, ErrNotFound
	}
	return *j, nil
}

// List returns snapshots of all jobs, newest submission first.
func (s *Service) List() []Job {
	s.mu.Lock()
	out := make([]Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, *j)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, k int) bool {
		if !out[i].SubmittedAt.Equal(out[k].SubmittedAt) {
			return out[i].SubmittedAt.After(out[k].SubmittedAt)
		}
		return out[i].ID < out[k].ID
	})
	return out
}

// Report returns the finished report for a done job. For a dedup alias
// the id is the cached job's id, so callers always read through Get.
func (s *Service) Report(id string) (*ion.Report, error) {
	j, err := s.Get(id)
	if err != nil {
		return nil, err
	}
	if !j.State.Succeeded() {
		return nil, fmt.Errorf("%w: %s is %s", ErrNotDone, id, j.State)
	}
	return s.store.Report(id)
}

// Wait blocks until the job reaches a terminal state or ctx expires,
// then returns the job snapshot.
func (s *Service) Wait(ctx context.Context, id string) (Job, error) {
	s.mu.Lock()
	ch, ok := s.done[id]
	s.mu.Unlock()
	if !ok {
		return Job{}, ErrNotFound
	}
	select {
	case <-ctx.Done():
		return Job{}, ctx.Err()
	case <-ch:
	}
	return s.Get(id)
}

// Stats returns a snapshot of the service counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Workers:         s.cfg.Workers,
		Busy:            s.busy,
		QueueDepth:      len(s.queue),
		QueueCapacity:   s.cfg.QueueDepth,
		Jobs:            len(s.jobs),
		Submitted:       s.submitted,
		Completed:       s.completed,
		Failed:          s.failed,
		Retried:         s.retried,
		CacheHits:       s.cacheHits,
		Recovered:       s.recovered,
		SemanticHits:    s.semHits,
		Conditioned:     s.semConditioned,
		AdoptedVerdicts: s.semAdopted,
	}
	if tot := s.ledger.Totals(); tot.Calls > 0 {
		st.LLMCalls = tot.Calls
		st.LLMTokensIn = tot.TokensIn
		st.LLMTokensOut = tot.TokensOut
		st.LLMCostUSD = tot.CostUSD
	}
	return st
}

// SemCache exposes the semantic cache (nil when disabled); read-only
// use by the web layer.
func (s *Service) SemCache() *semcache.Store { return s.sem }

// Ledger exposes the LLM audit ledger (nil when disabled); read-only
// use by the web layer.
func (s *Service) Ledger() *ledger.Store { return s.ledger }

// Quality exposes the scorecard store (nil when disabled); read-only
// use by the web layer.
func (s *Service) Quality() *quality.Store { return s.qual }

// SemThresholds returns the reuse and conditioning similarity
// thresholds in effect.
func (s *Service) SemThresholds() (reuse, condition float64) {
	return s.cfg.SemReuseThreshold, s.cfg.SemConditionThreshold
}

// Close shuts the service down gracefully: no new submissions are
// accepted, idle workers exit, and running analyses are drained. Jobs
// still queued stay persisted as queued and are recovered by the next
// Open. If ctx expires before the drain completes, in-flight analyses
// are aborted (their jobs retry on the next start).
func (s *Service) Close(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		s.shadowWG.Wait()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.log.Info("job service closing, draining workers")
	close(s.stop)
	// Shadow re-runs are best-effort: cancel them outright rather than
	// holding shutdown for a background fan-out, then wait for the
	// goroutines so nothing writes to the stores after Close returns.
	s.shadowCancel()

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		s.shadowWG.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		s.abort()
		<-drained
		return ctx.Err()
	}
}

func (s *Service) worker() {
	defer s.wg.Done()
	for {
		// A closed stop channel wins over more queued work, so shutdown
		// drains only the jobs already running.
		select {
		case <-s.stop:
			return
		default:
		}
		select {
		case <-s.stop:
			return
		case id := <-s.queue:
			s.run(id)
		}
	}
}

// run executes one job: take the trace parsed at admission (or parse
// the stored trace), extract its tables (or reuse the extract cache
// keyed by trace hash, skipping both stages), then run the analysis
// with a per-attempt timeout, retrying transient failures with
// backoff + jitter. The whole execution is traced; the span timeline
// is persisted next to the report (win or lose) and folded into the
// stage-latency histogram.
func (s *Service) run(id string) {
	s.mu.Lock()
	pre, parked := s.preParsed[id]
	delete(s.preParsed, id)
	j, ok := s.jobs[id]
	if !ok || j.State.Terminal() {
		s.mu.Unlock()
		return
	}
	hash := j.Hash
	s.busy++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.busy--
		s.mu.Unlock()
	}()

	tracer := obs.NewTracer()
	logger := s.log.With("job", id)
	ctx := obs.WithLogger(obs.WithTracer(s.baseCtx, tracer), logger)
	// Stamp the analysis context so every LLM call made on this job's
	// behalf is attributed to it in the audit ledger.
	ctx = llm.WithJobID(ctx, id)
	ctx, root := obs.StartSpan(ctx, "job", obs.L("job", id))

	if out, ok := s.cache.get(hash); ok {
		root.Annotate("extract_cache", "hit")
		logger.Info("extract cache hit, skipping parse+extract", "hash", hash[:12])
		state, cause := s.diagnose(ctx, id, hash, out)
		s.settle(id, state, cause, tracer, root)
		return
	}

	var log *darshan.Log
	var err error
	switch {
	case parked && pre.start.IsZero():
		// Streamed ingestion parsed this trace while the body was
		// uploading.
		root.Annotate("parse", "streamed")
		logger.Info("using parse from streamed ingestion", "hash", hash[:12])
		log = pre.log
	case parked:
		obs.RecordSpan(ctx, "parse", pre.start, pre.end, obs.L("at", "submit"))
		log = pre.log
	default:
		var trace []byte
		if trace, err = s.store.Trace(id); err == nil {
			pctx, span := obs.StartSpan(ctx, "parse")
			log, err = s.parseTrace(pctx, trace)
			span.SetError(err)
			span.End()
		}
	}
	if err == nil {
		ectx, espan := obs.StartSpan(ctx, "extract")
		var out *extractor.Output
		out, err = extractor.ExtractToDirContext(ectx, log, s.store.WorkDir(id))
		espan.SetError(err)
		espan.End()
		if err == nil {
			s.cache.put(hash, out)
			state, cause := s.diagnose(ctx, id, hash, out)
			s.settle(id, state, cause, tracer, root)
			return
		}
	}
	logger.Error("job unrunnable", "err", err)
	s.settle(id, StateFailed, err, tracer, root)
}

// settle persists the span timeline and then applies the terminal
// state, in that order: the moment a watcher observes a terminal job,
// its trace is already readable. An empty state means the job was
// parked (e.g. re-queued during shutdown) and there is nothing to
// finish.
func (s *Service) settle(id string, state State, cause error, tracer *obs.Tracer, root *obs.Span) {
	s.saveTimeline(id, tracer, root)
	if state != "" {
		s.finish(id, state, cause)
	}
}

// saveTimeline closes the root span, persists the job's span timeline,
// feeds the stage-latency histogram (each observation carrying the job
// id as its exemplar), and offers the timeline to any OnTimeline hook.
func (s *Service) saveTimeline(id string, tracer *obs.Tracer, root *obs.Span) {
	root.End()
	tl := tracer.Timeline()
	tl.Trace = id
	if err := s.store.PutTimeline(id, tl); err != nil {
		s.log.Warn("persisting span timeline", "job", id, "err", err)
	}
	obs.ObserveStages(s.obs, tl)
	if s.cfg.OnTimeline != nil {
		s.cfg.OnTimeline(tl)
	}
}

// attempts runs the analysis over already-extracted tables. Extraction
// happens once in run (or not at all on a cache hit); retries repeat
// only the analysis stage. It returns the terminal state to apply (and
// the report on success), or an empty state when the job was parked as
// queued for recovery.
func (s *Service) attempts(ctx context.Context, id string, out *extractor.Output, opts ion.AnalyzeOptions) (State, *ion.Report, error) {
	logger := obs.LoggerFrom(ctx)
	for attempt := 1; ; attempt++ {
		s.transition(id, StateRunning, attempt, "")
		logger.Info("analysis attempt starting", "attempt", attempt)
		actx, span := obs.StartSpan(ctx, "attempt", obs.L("n", strconv.Itoa(attempt)))
		actx = llm.WithAttempt(actx, attempt)
		tctx, cancel := context.WithTimeout(actx, s.cfg.JobTimeout)
		name := s.snapshotName(id)
		start := time.Now()
		rep, err := s.fw.AnalyzeExtractedOpts(tctx, out, name, opts)
		cancel()
		if err == nil {
			err = s.store.PutReport(id, rep)
		}
		span.SetError(err)
		span.End()
		if err == nil {
			logger.Info("job done", "attempt", attempt,
				"elapsed", time.Since(start).Round(time.Millisecond).String())
			return StateDone, rep, nil
		}
		if !s.retryable(err, attempt) {
			logger.Error("job failed", "attempt", attempt, "err", err)
			return StateFailed, nil, err
		}
		s.mu.Lock()
		s.retried++
		s.mu.Unlock()
		logger.Warn("attempt failed, retrying", "attempt", attempt, "err", err)
		s.transition(id, StateRetrying, attempt, err.Error())
		if !s.sleep(backoff(s.cfg.RetryDelay, s.cfg.MaxRetryDelay, attempt)) {
			// Shutdown interrupted the backoff: park the job as queued so
			// the next Open recovers it.
			logger.Info("shutdown during backoff, parking job as queued", "attempt", attempt)
			s.transition(id, StateQueued, attempt, err.Error())
			return "", nil, nil
		}
	}
}

// retryable classifies a failure: shutdown cancellation is final,
// everything else (LLM hiccups, per-attempt timeouts) is transient
// until the attempt budget runs out.
func (s *Service) retryable(err error, attempt int) bool {
	if attempt >= s.cfg.MaxAttempts {
		return false
	}
	if s.baseCtx.Err() != nil || errors.Is(err, context.Canceled) {
		return false
	}
	return true
}

// sleep waits d, returning false if shutdown interrupts the wait.
func (s *Service) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-s.stop:
		return false
	case <-s.baseCtx.Done():
		return false
	}
}

func (s *Service) snapshotName(id string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok {
		return j.Trace
	}
	return id
}

// transition moves a job to a non-terminal state and persists it.
func (s *Service) transition(id string, state State, attempt int, errMsg string) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return
	}
	j.State = state
	j.Attempts = attempt
	j.Error = errMsg
	if state == StateRunning && j.StartedAt.IsZero() {
		j.StartedAt = time.Now().UTC()
	}
	snapshot := *j
	s.mu.Unlock()
	if err := s.store.PutJob(&snapshot); err != nil {
		// The in-memory state is authoritative while the process lives;
		// a persistence miss only degrades crash recovery. Say so.
		s.log.Warn("persisting job transition", "job", id, "state", state, "err", err)
	}
}

// finish moves a job to a terminal state, persists it, bumps the
// outcome counters, and releases waiters.
func (s *Service) finish(id string, state State, cause error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return
	}
	j.State = state
	j.FinishedAt = time.Now().UTC()
	if cause != nil {
		j.Error = cause.Error()
	} else {
		j.Error = ""
	}
	switch state {
	case StateDone, StateReused:
		s.completed++
	case StateFailed:
		s.failed++
		// A failed job no longer answers dedup lookups.
		if s.byHash[j.Hash] == id {
			delete(s.byHash, j.Hash)
		}
	}
	ch := s.done[id]
	snapshot := *j
	s.mu.Unlock()
	if err := s.store.PutJob(&snapshot); err != nil {
		s.log.Warn("persisting job outcome", "job", id, "state", state, "err", err)
	}
	if ch != nil {
		close(ch)
	}
}

// backoff computes the exponential delay before retry `attempt`+1 with
// ±50% jitter, capped at max.
func backoff(base, max time.Duration, attempt int) time.Duration {
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	// Jitter in [d/2, 3d/2) de-synchronizes retry storms.
	return d/2 + time.Duration(mathrand.Int63n(int64(d)+1))
}

// ParseTrace decodes trace bytes as a Darshan log, accepting the binary
// container format and falling back to darshan-parser text (parsed in
// shards up to GOMAXPROCS wide).
func ParseTrace(data []byte) (*darshan.Log, error) {
	return parseTraceOpts(data, darshan.ParallelOptions{})
}

// parseTrace is ParseTrace bounded by the configured shard concurrency,
// with per-shard spans and throughput metrics.
func (s *Service) parseTrace(ctx context.Context, data []byte) (*darshan.Log, error) {
	opts := darshan.ParallelOptions{
		Workers: s.cfg.ParseWorkers,
		OnShard: s.shardHook(ctx),
	}
	start := time.Now()
	log, err := parseTraceOpts(data, opts)
	if err == nil {
		s.recordParseRate(int64(len(data)), time.Since(start))
	}
	return log, err
}

// shardHook returns a ParallelOptions.OnShard callback that opens one
// span per parse shard under ctx and counts shards. Safe under
// concurrent shard starts; no-op spans when ctx has no tracer.
func (s *Service) shardHook(ctx context.Context) func(int, []byte) func(error) {
	return func(shard int, chunk []byte) func(error) {
		s.parseShards.Inc()
		_, span := obs.StartSpan(ctx, "parse_shard",
			obs.L("shard", strconv.Itoa(shard)),
			obs.L("bytes", strconv.Itoa(len(chunk))))
		return func(err error) {
			span.SetError(err)
			span.End()
		}
	}
}

// recordParseRate publishes the most recent parse throughput.
func (s *Service) recordParseRate(bytes int64, elapsed time.Duration) {
	if secs := elapsed.Seconds(); secs > 0 {
		s.parseMBps.Set(float64(bytes) / 1e6 / secs)
	}
}

// parseTraceOpts decodes trace bytes as a Darshan log, accepting the
// binary container format and falling back to sharded text parsing.
func parseTraceOpts(data []byte, opts darshan.ParallelOptions) (*darshan.Log, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("%w: empty body", ErrBadTrace)
	}
	log, binErr := darshan.ReadBinary(bytes.NewReader(data))
	if binErr != nil {
		var txtErr error
		log, txtErr = darshan.ParseTextParallelOpts(data, opts)
		if txtErr != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadTrace, txtErr)
		}
	}
	if len(log.Modules) == 0 && len(log.DXT) == 0 {
		return nil, fmt.Errorf("%w: no module records", ErrBadTrace)
	}
	return log, nil
}

// newID returns a fresh job id: "j-" + 12 random hex chars.
func newID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; fall back to a
		// time-derived id rather than panicking the service.
		return fmt.Sprintf("j-%012x", time.Now().UnixNano()&0xffffffffffff)
	}
	return "j-" + hex.EncodeToString(b[:])
}
