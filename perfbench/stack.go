package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	"ion/internal/expertsim"
	"ion/internal/jobs"
	"ion/internal/llm"
	"ion/internal/llm/ledger"
	"ion/internal/obs"
	"ion/internal/quality"
	"ion/internal/semcache"
	"ion/internal/webui"
)

// serviceSettings are the ionserve flags a workload runs with. The
// defaults mirror cmd/ionserve's flag defaults.
type serviceSettings struct {
	Workers      int     `json:"workers"`
	QueueDepth   int     `json:"queue"`
	SemCache     bool    `json:"sem_cache"`
	ShadowRate   float64 `json:"shadow_sample_rate"`
	LogLevel     string  `json:"log_level"`
	ParseWorkers int     `json:"parse_workers"`
	// Off lists the ionserve subsystems the benchmark leaves out of the
	// stack, each with its ionserve flag.
	Off []string `json:"off"`
}

func defaultSettings() serviceSettings {
	return serviceSettings{
		Workers:    2,
		QueueDepth: 16,
		SemCache:   true,
		ShadowRate: 0.05,
		LogLevel:   "info (to a discarding writer)",
		Off: []string{
			"series store and alert rules (-scrape-interval)",
			"continuous profiler (-prof-interval)",
			"flight recorder (-incident-dir)",
		},
	}
}

// stack is an in-process ionserve: the stores, the job service and
// the JSON/HTML routes behind an httptest server, wired the way
// cmd/ionserve wires them.
type stack struct {
	dir    string
	reg    *obs.Registry
	ledger *ledger.Store
	sem    *semcache.Store
	qual   *quality.Store
	svc    *jobs.Service
	srv    *httptest.Server
}

// openStack opens every store and the job service over dir and starts
// serving. wrap, when non-nil, wraps the model client the analysis
// workers use (the traced run's span recorder).
func openStack(dir string, set serviceSettings, wrap func(llm.Client) llm.Client) (*stack, error) {
	st := &stack{dir: dir, reg: obs.NewRegistry()}
	ok := false
	defer func() {
		if !ok {
			st.close()
		}
	}()
	obs.RegisterRuntimeMetrics(st.reg)
	obs.RegisterBuildInfo(st.reg)
	logger := obs.NewLogger(io.Discard, slog.LevelInfo)

	// The audit ledger records between the backend and the
	// instrumentation, as ionserve composes them.
	var err error
	st.ledger, err = ledger.Open(ledger.StoreOptions{Path: filepath.Join(dir, "llm", "ledger.jsonl")})
	if err != nil {
		return nil, err
	}
	ledgerClient := ledger.Wrap(expertsim.New(), st.ledger, ledger.WrapOptions{
		Prices:   ledger.DefaultPrices(),
		Registry: st.reg,
	})
	client := llm.Instrument(ledgerClient, st.reg)
	if set.SemCache {
		st.sem, err = semcache.Open(semcache.Options{
			Path:       filepath.Join(dir, "semcache.jsonl"),
			MaxEntries: semcache.DefaultMaxEntries,
			MaxBytes:   semcache.DefaultMaxBytes,
		})
		if err != nil {
			return nil, err
		}
	}
	st.qual, err = quality.Open(quality.Options{Path: filepath.Join(dir, "quality.jsonl")})
	if err != nil {
		return nil, err
	}
	workerClient := client
	if wrap != nil {
		workerClient = wrap(client)
	}
	st.svc, err = jobs.Open(jobs.Config{
		Dir:                   dir,
		Client:                workerClient,
		Workers:               set.Workers,
		QueueDepth:            set.QueueDepth,
		ParseWorkers:          set.ParseWorkers,
		StreamMaxBuffer:       256 << 20,
		JobTimeout:            5 * time.Minute,
		MaxAttempts:           3,
		Obs:                   st.reg,
		Logger:                logger,
		SemCache:              st.sem,
		SemReuseThreshold:     0.995,
		SemConditionThreshold: 0.90,
		Ledger:                st.ledger,
		Quality:               st.qual,
		ShadowSampleRate:      set.ShadowRate,
	})
	if err != nil {
		return nil, err
	}
	js, err := webui.NewJobServer(client, st.svc)
	if err != nil {
		return nil, err
	}
	js.WithObs(st.reg, logger).WithLLMLedger(ledgerClient).WithQuality(st.qual)
	st.srv = httptest.NewServer(js.Handler())
	ok = true
	return st, nil
}

// waitReady polls /readyz until it answers 200.
func (st *stack) waitReady(c *http.Client) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := c.Get(st.srv.URL + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("stack: /readyz never answered 200")
}

// close stops the server, drains the job service and closes the
// stores, returning every error it met.
func (st *stack) close() error {
	var errs []error
	if st.srv != nil {
		st.srv.Close()
	}
	if st.svc != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		errs = append(errs, st.svc.Close(ctx))
		cancel()
	}
	if st.qual != nil {
		errs = append(errs, st.qual.Close())
	}
	if st.sem != nil {
		errs = append(errs, st.sem.Close())
	}
	if st.ledger != nil {
		errs = append(errs, st.ledger.Close())
	}
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("stack: closing: %w", err)
	}
	return nil
}
