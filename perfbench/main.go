// Shadow re-run sampling (jobs.maybeShadow) draws from the global
// math/rand source; a fixed seed makes which reused jobs get shadowed
// the same in every run instead of a per-process random choice.
//go:debug randautoseed=0

// Command perfbench is the served-path benchmark of the ION
// reproduction. It builds an in-process ionserve (jobs.Service and
// webui.JobServer behind httptest, wired like cmd/ionserve), opens it
// over a pre-built data dir of a long-running service, drives it over
// HTTP with generated Darshan traces, checks every served verdict
// against a direct ion.Framework.AnalyzeLog of the same trace, and
// prints one JSON result line. See README.md.
//
//	perfbench --workload fresh-mix --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
// untraced, then traced, then a layer-isolation pass, and prints the
// per-layer metrics. Any failed verdict check exits non-zero without a
// result.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	if err := mainErr(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// options are the command-line arguments.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	prebuild prebuildSize
	// buildDir holds the run's scratch data and the traced run's span
	// file; .bench_build in the checkout.
	buildDir string
}

func parseOptions(args []string) (options, error) {
	o := options{prebuild: defaultPrebuild, buildDir: ".bench_build"}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "traffic mix: fresh-mix, near-dup or stream-large")
	fs.Int64Var(&o.seed, "seed", 1, "seed for header job ids, corpus order, arrival jitter and the pre-built journals")
	fs.Float64Var(&o.seconds, "seconds", 30, "length of the measured window")
	fs.IntVar(&o.trace, "trace", 0, "1: print per-layer metrics from a traced run instead of the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.seconds <= 0 {
		return o, errors.New("--seconds must be positive")
	}
	if o.trace != 0 && o.trace != 1 {
		return o, errors.New("--trace must be 0 or 1")
	}
	return o, nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func mainErr(args []string) error {
	o, err := parseOptions(args)
	if err != nil {
		return err
	}
	spec, err := specByName(o.workload)
	if err != nil {
		return err
	}
	res, prov, err := runBenchmark(o, spec)
	if err != nil {
		return err
	}
	printTable(os.Stderr, res.Metrics)
	pj, err := json.Marshal(map[string]any{"provenance": prov})
	if err != nil {
		return err
	}
	fmt.Println(string(pj))
	rj, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(rj))
	return nil
}

// runBenchmark sets up the corpus, references and pre-built data dir,
// runs the phases the mode needs, and checks every served verdict.
func runBenchmark(o options, spec workloadSpec) (*result, map[string]any, error) {
	benchStart := time.Now()
	build := o.buildDir
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp(build, "run-"+spec.Name+"-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)

	corpus, err := buildCorpus()
	if err != nil {
		return nil, nil, err
	}
	refs, err := corpusReferences(corpus, filepath.Join(dir, "ref"))
	if err != nil {
		return nil, nil, err
	}
	var streamCT *corpusTrace
	for _, ct := range corpus {
		if ct.Workload == streamWorkload {
			streamCT = ct
		}
	}
	stream := &streamTrace{trace: streamCT, minBytes: streamBytes}
	if spec.Stream {
		if refs["stream"], err = streamReference(stream, filepath.Join(dir, "ref")); err != nil {
			return nil, nil, err
		}
	}
	prebuilt := filepath.Join(dir, "prebuilt")
	if err := prebuild(prebuilt, o.seed, corpus, refs, o.prebuild); err != nil {
		return nil, nil, fmt.Errorf("pre-building the data dir: %w", err)
	}
	settings := defaultSettings()
	settings.SemCache = spec.SemCache
	settings.ParseWorkers = runtime.GOMAXPROCS(0)
	e := &env{
		spec: spec, seed: o.seed, window: time.Duration(o.seconds * float64(time.Second)),
		dir: dir, corpus: corpus, refs: refs, prebuilt: prebuilt, stream: stream, settings: settings,
	}
	benchSetup := time.Since(benchStart)

	g, err := newGate(refs, filepath.Join(dir, "gate"))
	if err != nil {
		return nil, nil, err
	}
	u, err := e.run(false)
	if err != nil {
		return nil, nil, err
	}
	phases := []*phase{u}
	res := &result{Correct: true}
	if o.trace == 0 {
		res.Metrics = endToEnd(spec, e.window, u)
	} else {
		t, err := e.run(true)
		if err != nil {
			return nil, nil, err
		}
		phases = append(phases, t)
		iso, err := e.isolate(t)
		if err != nil {
			return nil, nil, fmt.Errorf("layer isolation: %w", err)
		}
		res.Metrics = perLayer(spec, t, u, iso)
		if err := t.Rec.writeFile(filepath.Join(build, fmt.Sprintf("spans-%s-%d.json", spec.Name, o.seed))); err != nil {
			return nil, nil, err
		}
	}
	for _, p := range phases {
		g.add(p.Prime)
		g.add(p.Results)
	}
	for _, p := range phases {
		for _, rs := range [][]*jobResult{p.Prime, p.Results} {
			if err := undecodable(rs); err != nil {
				return nil, nil, err
			}
		}
		if err := g.check(p.Prime); err != nil {
			return nil, nil, err
		}
		if err := g.check(p.Results); err != nil {
			return nil, nil, err
		}
		s := summarize(p)
		res.Attempted += s.Attempted
		res.Failed += s.Attempted - s.OK
	}
	if res.Attempted == 0 {
		return nil, nil, errors.New("no submissions in the window")
	}
	if o.trace == 1 {
		res.Metrics.set("bench.conditioned_verdict_mismatches", float64(g.ConditionedMismatches), "count")
	}
	return res, provenance(o, spec, settings, u, g, benchSetup), nil
}

// provenance records what the numbers were measured on and with.
func provenance(o options, spec workloadSpec, set serviceSettings, u *phase, g *gate, benchSetup time.Duration) map[string]any {
	s := summarize(u)
	beyond := len(s.Diagnosis) - int(0.95*float64(len(s.Diagnosis)))
	loop := fmt.Sprintf("open loop, %.3g jobs/s", spec.Rate)
	if spec.Paced {
		loop = fmt.Sprintf("paced, 1 client, %.3g jobs/s", spec.Rate)
	}
	return map[string]any{
		"workload":               spec.Name,
		"seed":                   o.seed,
		"seconds":                o.seconds,
		"trace":                  o.trace,
		"loop":                   loop,
		"slo_ms":                 ms(spec.SLO),
		"nproc":                  runtime.NumCPU(),
		"gomaxprocs":             runtime.GOMAXPROCS(0),
		"http_conns":             map[string]int{"submit": writeConns, "read": readConns},
		"cpu_model":              cpuModel(),
		"go":                     runtime.Version(),
		"commit":                 commit(),
		"service":                set,
		"prebuilt":               o.prebuild,
		"diagnosis_samples":      len(s.Diagnosis),
		"beyond_p95":             beyond,
		"verdicts_checked":       g.Checked,
		"conditioned_exempt":     g.Conditioned,
		"conditioned_mismatches": g.ConditionedMismatches,
		"bench_setup_s":          benchSetup.Seconds(),
		"max_rss_mb":             maxRSSMB(),
		"host_steal_ratio":       u.Steal,
	}
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the checkout's git commit when the checkout is a git work
// tree, else "unknown".
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	return "unknown"
}

// printTable writes the metrics, one per line, for a human reader.
func printTable(w *os.File, m metricSet) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%-34s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}
