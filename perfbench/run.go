package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"ion/internal/darshan"
	"ion/internal/jobs"
	"ion/internal/llm"
	"ion/internal/llm/ledger"
	"ion/internal/semcache"
)

// workloadSpec is one traffic mix. Rates and SLO limits are fixed
// constants, never calibrated per run; BENCHMARK.json states them in
// the "why" of each workload it lists.
type workloadSpec struct {
	Name string
	// Rate is the arrival rate of the send schedule in jobs/s.
	Rate float64
	// Paced keeps one job in flight: one client sends each request at
	// its due time or once the previous report has been read, whichever
	// is later, and times it from its send. Otherwise the loop is open:
	// every request goes out at its due time and is timed from it.
	Paced bool
	// Stream sends the tiled stream trace as chunked uploads instead of
	// corpus copies.
	Stream bool
	// SLO is the diagnosis-time limit slo_ratio counts against.
	SLO time.Duration
	// SemCache is the -sem-cache flag the service runs with.
	SemCache bool
	// DriftEvery makes every n-th submission a drifted copy (0: none).
	DriftEvery int
	// ReadCadence paces the page/API read mix (0: no read mix).
	ReadCadence time.Duration
	// Unlisted says why BENCHMARK.json does not list the workload
	// ("": it does).
	Unlisted string
}

var workloadSpecs = []workloadSpec{
	{Name: "fresh-mix", Rate: 2.4, Paced: true, SLO: 2 * time.Second, SemCache: false},
	{Name: "near-dup", Rate: 3.6, SLO: 2 * time.Second, SemCache: true, DriftEvery: 10, ReadCadence: 100 * time.Millisecond,
		Unlisted: "fails the verdict gate: verbatim hits of a conditioned openpmd-baseline serve collective-io not-detected (README.md)"},
	{Name: "stream-large", Rate: 1, Paced: true, Stream: true, SLO: 5 * time.Second, SemCache: true},
}

func specByName(name string) (workloadSpec, error) {
	for _, s := range workloadSpecs {
		if s.Name == name {
			return s, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

// streamWorkload is the corpus trace stream-large tiles to at least
// streamBytes.
const (
	streamWorkload = "openpmd-baseline"
	streamBytes    = 10 << 20
)

// setupReps is how many times set-up is measured per phase; setup_s
// is their median.
const setupReps = 5

// The benchmark opens at most nproc HTTP connections: half for
// submissions, half for reads (at least one each).
var (
	writeConns = max(1, runtime.NumCPU()/2)
	readConns  = max(1, runtime.NumCPU()-runtime.NumCPU()/2)
)

// env is the state shared by the phases of one benchmark invocation.
type env struct {
	spec     workloadSpec
	seed     int64
	window   time.Duration
	dir      string
	corpus   []*corpusTrace
	refs     map[string]*reference
	prebuilt string
	stream   *streamTrace
	settings serviceSettings
}

// phase is one measured run of the workload against a fresh stack.
type phase struct {
	Setup   []time.Duration
	Prime   []*jobResult
	Results []*jobResult
	Lags    []time.Duration
	Start   time.Time
	CPU     time.Duration
	// Steal is the host's steal share of all CPU time in the window
	// (-1: unknown): time the hypervisor ran other guests.
	Steal     float64
	Alloc     uint64
	PeakHeap  uint64
	Stats     []statsSample
	Reads     []sample
	Before    jobs.Stats
	After     jobs.Stats
	SemBefore semcache.Stats
	SemAfter  semcache.Stats
	StoreGrow int64
	// Metrics and MetricsBefore are /metrics around the window.
	Metrics, MetricsBefore []byte
	LedgerLen              int
	ShadowJobs             map[string]bool // "<job>-shadow" ledger jobs
	QualityBytes           int64
	Rec                    *recorder
	Dir                    string
}

// openMeasured opens setupReps stacks, each over its own copy of the
// pre-built data dir, timing stores + jobs.Open until /readyz answers
// 200. All but the last are closed again.
func (e *env) openMeasured(name string, wrap func(llm.Client) llm.Client) (*stack, []time.Duration, error) {
	var times []time.Duration
	var st *stack
	for i := 0; i < setupReps; i++ {
		dir := filepath.Join(e.dir, fmt.Sprintf("%s-%d", name, i))
		if err := copyDataDir(e.prebuilt, dir); err != nil {
			return nil, nil, err
		}
		runtime.GC()
		start := time.Now()
		s, err := openStack(dir, e.settings, wrap)
		if err != nil {
			return nil, nil, err
		}
		c := newClient(s.srv.URL, 1, 1, nil)
		err = s.waitReady(c.readPool)
		times = append(times, time.Since(start))
		c.close()
		if err != nil {
			s.close()
			return nil, nil, err
		}
		if i < setupReps-1 {
			if err := s.close(); err != nil {
				return nil, nil, err
			}
			if err := os.RemoveAll(dir); err != nil {
				return nil, nil, err
			}
			continue
		}
		st = s
	}
	return st, times, nil
}

// run measures one phase. A traced phase records spans around every
// HTTP call and every model completion.
func (e *env) run(traced bool) (*phase, error) {
	p := &phase{}
	var wrap func(llm.Client) llm.Client
	name := "untraced"
	if traced {
		name = "traced"
		p.Rec = &recorder{}
		wrap = func(c llm.Client) llm.Client { return tracedClient{inner: c, rec: p.Rec} }
	}
	st, setup, err := e.openMeasured(name, wrap)
	if err != nil {
		return nil, err
	}
	p.Setup, p.Dir = setup, st.dir
	defer st.close()
	c := newClient(st.srv.URL, writeConns, readConns, p.Rec)
	// Near-dup's read mix includes each finished job's timeline; the
	// other workloads read it only in the traced run, for queue wait.
	withTrace := traced || e.spec.ReadCadence > 0
	defer c.close()
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()

	// Warm-up, outside the window: one copy of each trace the workload
	// sends (on near-dup this is what the semantic cache then serves).
	rng := rand.New(rand.NewSource(e.seed ^ 0x9e3779b9))
	if p.Prime, err = e.prime(ctx, c, st, rng, withTrace); err != nil {
		return nil, err
	}

	// Window.
	count := int(e.spec.Rate * e.window.Seconds())
	var subs []*submission
	if e.spec.Stream {
		subs = planStream(e.stream, e.seed, e.spec.Rate, count)
	} else {
		// Whole passes over the corpus in both formats, so every run
		// sends the same traces and the seed changes only their order.
		if cycle := 2 * len(e.corpus); count >= cycle {
			count -= count % cycle
		}
		if subs, err = planOpenLoop(e.corpus, e.seed, e.spec.Rate, count, e.spec.DriftEvery); err != nil {
			return nil, err
		}
	}
	if p.MetricsBefore, err = c.get("/metrics", "/metrics", ""); err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.reads = nil // only the window's reads count
	c.mu.Unlock()
	p.Before, p.SemBefore = st.svc.Stats(), st.sem.Stats()
	storeBefore := dirBytes(st.dir)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	allocBefore, peak := ms.TotalAlloc, ms.HeapInuse
	cpuBefore, hostBefore := cpuTime(), hostCPU()

	// HeapInuse is heap objects plus unused span space; runtime/metrics
	// reads it without stopping the world, so it can be sampled often.
	heapSamples := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/memory/classes/heap/unused:bytes"}}
	heap := startPoller(20*time.Millisecond, func() {
		metrics.Read(heapSamples)
		if v := heapSamples[0].Value.Uint64() + heapSamples[1].Value.Uint64(); v > peak {
			peak = v
		}
	})
	// Queue depth and busy workers are sampled in-process from the
	// same jobs.Service.Stats that /api/stats serves, so the instrument
	// adds no HTTP traffic of its own to the read metrics.
	stats := startPoller(100*time.Millisecond, func() {
		s := st.svc.Stats()
		p.Stats = append(p.Stats, statsSample{QueueDepth: s.QueueDepth, Busy: s.Busy})
	})
	var lastDone lastJob
	var reads *poller
	if e.spec.ReadCadence > 0 {
		reads = startPoller(e.spec.ReadCadence, readMix(c, &lastDone))
	}

	p.Start = time.Now()
	var mu sync.Mutex
	record := func(r *jobResult) {
		mu.Lock()
		p.Results = append(p.Results, r)
		mu.Unlock()
		if r.OK {
			lastDone.set(r.JobID)
		}
	}
	dues := make([]time.Duration, len(subs))
	for i, s := range subs {
		dues[i] = s.Due
	}
	if e.spec.Paced {
		p.Lags = pacedLoop(ctx, p.Start, dues, func(i int) {
			body, n := subs[i].body()
			record(runJob(ctx, c, st.svc, subs[i], time.Now(), body, n, withTrace))
		})
	} else {
		var wg sync.WaitGroup
		wg.Add(len(subs))
		p.Lags = openLoop(ctx, p.Start, dues, func(i int, due time.Time) {
			defer wg.Done()
			body, n := subs[i].body()
			record(runJob(ctx, c, st.svc, subs[i], due, body, n, withTrace))
		})
		// Requests never fired (the context expired) are done too.
		for range subs[len(p.Lags):] {
			wg.Done()
		}
		wg.Wait()
	}
	p.CPU = cpuTime() - cpuBefore
	p.Steal = stealShare(hostBefore, hostCPU())
	runtime.ReadMemStats(&ms)
	p.Alloc = ms.TotalAlloc - allocBefore
	if reads != nil {
		reads.halt()
	}
	stats.halt()
	heap.halt()
	p.PeakHeap = peak
	p.After, p.SemAfter = st.svc.Stats(), st.sem.Stats()
	p.StoreGrow = dirBytes(st.dir) - storeBefore
	c.mu.Lock()
	p.Reads = append([]sample(nil), c.reads...)
	c.mu.Unlock()
	if p.Metrics, err = c.get("/metrics", "/metrics", ""); err != nil {
		return nil, err
	}
	p.LedgerLen = st.ledger.Len()
	p.ShadowJobs = map[string]bool{}
	for _, le := range st.ledger.Entries(ledger.Filter{}) {
		if strings.HasSuffix(le.Job, "-shadow") {
			p.ShadowJobs[le.Job] = true
		}
	}
	if fi, err := os.Stat(filepath.Join(st.dir, "quality.jsonl")); err == nil {
		p.QualityBytes = fi.Size()
	}
	sort.Slice(p.Results, func(i, j int) bool { return p.Results[i].Due.Before(p.Results[j].Due) })
	if ctx.Err() != nil {
		return nil, fmt.Errorf("run did not finish in time: %w", ctx.Err())
	}
	return p, nil
}

// prime sends, outside the window, one copy of every corpus trace, one
// at a time in corpus order, and waits for each diagnosis. Sequential
// priming makes the semantic cache's choices (which traces condition
// on an earlier one) the same in every run. The stream workload is not
// primed: its first stream job is the full diagnosis the semantic
// cache then serves, once per run, as a service meeting a new workload
// would.
func (e *env) prime(ctx context.Context, c *client, st *stack, rng *rand.Rand, withTrace bool) ([]*jobResult, error) {
	if e.spec.Stream {
		return nil, nil
	}
	var out []*jobResult
	for _, ct := range e.corpus {
		s := &submission{Source: ct.Workload, Name: ct.Workload, Format: formatBinary, HeaderJobID: headerJobID(rng), trace: ct}
		bin, err := binaryWithJobID(ct.Log, s.HeaderJobID)
		if err != nil {
			return nil, err
		}
		s.bin = bin
		r := runJob(ctx, c, st.svc, s, time.Now(), bytes.NewReader(bin), int64(len(bin)), withTrace)
		if !r.OK {
			return nil, fmt.Errorf("warm-up job %s failed: %v", s.Name, r.Err)
		}
		out = append(out, r)
	}
	return out, nil
}

// lastJob remembers the most recently finished job for the job-page
// read.
type lastJob struct {
	mu sync.Mutex
	id string
}

func (l *lastJob) set(id string) { l.mu.Lock(); l.id = id; l.mu.Unlock() }
func (l *lastJob) get() string   { l.mu.Lock(); defer l.mu.Unlock(); return l.id }

// readMix returns the read side of near-dup: one GET per tick, cycling
// through the index (job list), stats, metrics, semcache, quality
// dashboard and the latest finished job's page.
func readMix(c *client, last *lastJob) func() {
	routes := []string{"/", "/api/stats", "/metrics", "/api/semcache", "/dashboard/quality", "/jobs/{id}"}
	i := 0
	return func() {
		route := routes[i%len(routes)]
		i++
		path := route
		if route == "/jobs/{id}" {
			id := last.get()
			if id == "" {
				return
			}
			path = "/jobs/" + id
		}
		c.get(route, path, "")
	}
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostCPU returns the host-wide CPU time counters of /proc/stat (user,
// nice, system, idle, iowait, irq, softirq, steal, ...), or nil.
func hostCPU() []uint64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return nil
	}
	var out []uint64
	for _, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return nil
		}
		out = append(out, v)
	}
	return out
}

// stealShare is the steal share of the CPU time between two hostCPU
// readings, or -1 when either is missing.
func stealShare(before, after []uint64) float64 {
	if before == nil || after == nil || len(before) != len(after) {
		return -1
	}
	var total uint64
	for i := range after {
		total += after[i] - before[i]
	}
	if total == 0 {
		return -1
	}
	return float64(after[7]-before[7]) / float64(total)
}

// streamReference parses the tiled stream body and computes its
// reference verdicts.
func streamReference(st *streamTrace, workDir string) (*reference, error) {
	body := st.render(1)
	log, err := darshan.ParseText(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	g, err := newGate(nil, workDir)
	if err != nil {
		return nil, err
	}
	return analyzeReference(context.Background(), g.fw, streamWorkload+"-tiled", log, filepath.Join(workDir, "stream"))
}
