package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"time"

	"ion/internal/ion"
	"ion/internal/jobs"
	"ion/internal/obs"
)

// client issues the benchmark's HTTP calls and times every one of
// them. Submissions and reads use separate connection pools, as an
// uploading client and a reading user would, so a read never queues
// behind an upload on the client side.
type client struct {
	base      string
	writePool *http.Client
	readPool  *http.Client
	rec       *recorder // nil in an untraced run

	mu    sync.Mutex
	reads []sample // every GET
}

// sample is one timed call.
type sample struct {
	Route string
	D     time.Duration
}

// newClient returns a client with writeConns connections for
// submissions and readConns for reads.
func newClient(base string, writeConns, readConns int, rec *recorder) *client {
	pool := func(n int) *http.Client {
		return &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     n,
			MaxIdleConnsPerHost: n,
			IdleConnTimeout:     time.Minute,
		}}
	}
	return &client{base: base, writePool: pool(writeConns), readPool: pool(readConns), rec: rec}
}

func (c *client) close() {
	c.writePool.CloseIdleConnections()
	c.readPool.CloseIdleConnections()
}

// get fetches path, recording it as a read under route. Any status but
// 200 is an error.
func (c *client) get(route, path, job string) ([]byte, error) {
	start := time.Now()
	resp, err := c.readPool.Get(c.base + path)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
		}
	}
	end := time.Now()
	c.mu.Lock()
	c.reads = append(c.reads, sample{Route: route, D: end.Sub(start)})
	c.mu.Unlock()
	if c.rec != nil {
		c.rec.add("http.GET "+route, job, start, end, 0, 0)
	}
	return body, err
}

// submitResponse mirrors the POST /api/jobs wire type.
type submitResponse struct {
	Job   jobs.Job `json:"job"`
	Dedup bool     `json:"dedup"`
}

// submit POSTs one trace and reads the 202 body. A streamed submission
// goes to /api/jobs/stream with chunked transfer encoding.
func (c *client) submit(sub *submission, body io.Reader, n int64) (submitResponse, time.Duration, error) {
	path := "/api/jobs"
	if sub.Format == formatStream {
		path = "/api/jobs/stream"
		// Hiding the length forces chunked transfer, so shards parse
		// while the body is still arriving.
		body = struct{ io.Reader }{body}
		n = -1
	}
	req, err := http.NewRequest(http.MethodPost, c.base+path+"?name="+url.QueryEscape(sub.Name), body)
	if err != nil {
		return submitResponse{}, 0, err
	}
	req.ContentLength = n
	start := time.Now()
	resp, err := c.writePool.Do(req)
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	end := time.Now()
	if c.rec != nil {
		c.rec.add("http.POST "+path, "", start, end, 0, 0)
	}
	if err != nil {
		return submitResponse{}, end.Sub(start), err
	}
	if resp.StatusCode != http.StatusAccepted {
		return submitResponse{}, end.Sub(start), fmt.Errorf("POST %s: %s: %s", path, resp.Status, bytes.TrimSpace(data))
	}
	var sr submitResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		return submitResponse{}, end.Sub(start), fmt.Errorf("POST %s: %w: 202 body: %v", path, errUndecodable, err)
	}
	return sr, end.Sub(start), nil
}

// errUndecodable marks a 2xx response whose body does not decode. The
// run fails on it (see undecodable); it never counts as a failed job.
var errUndecodable = errors.New("undecodable body")

// report reads and decodes a finished job's report.
func (c *client) report(id string) (*ion.Report, error) {
	data, err := c.get("/api/jobs/{id}/report", "/api/jobs/"+id+"/report", id)
	if err != nil {
		return nil, err
	}
	var rep ion.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("report of %s: %w: 200 body: %v", id, errUndecodable, err)
	}
	return &rep, nil
}

// undecodable returns the first result whose error is an undecodable
// 2xx body, as an error.
func undecodable(rs []*jobResult) error {
	for _, r := range rs {
		if errors.Is(r.Err, errUndecodable) {
			return fmt.Errorf("job %s (%s, %s): %w", r.JobID, r.Sub.Name, r.Sub.Format, r.Err)
		}
	}
	return nil
}

// jobResult is everything measured about one submission.
type jobResult struct {
	Sub   *submission
	JobID string
	Err   error
	// Due is when the request was due (open loop) or sent (paced).
	Due, Done time.Time
	Ack       time.Duration
	OK        bool
	// Diagnosis runs from Due until the report JSON has been read.
	Diagnosis time.Duration
	Job       jobs.Job
	Report    *ion.Report
	// QueueWait is the root "job" span start minus SubmittedAt.
	QueueWait    time.Duration
	HasQueueWait bool
}

// statusPoll is how often a client polls its job's status while it
// waits.
const statusPoll = 50 * time.Millisecond

// runJob drives one submission through the service: submit, poll the
// job's status until it settles, read its report and, with withTrace,
// its span timeline. Completion itself is observed with
// jobs.Service.Wait, the in-process equivalent of a long poll, so the
// polling interval does not blur the diagnosis time; the status polls
// are the read traffic a waiting client makes.
func runJob(ctx context.Context, c *client, svc *jobs.Service, sub *submission, due time.Time, body io.Reader, n int64, withTrace bool) *jobResult {
	r := &jobResult{Sub: sub, Due: due}
	sr, ack, err := c.submit(sub, body, n)
	r.Ack = ack
	if err != nil {
		r.Err = err
		return r
	}
	r.JobID = sr.Job.ID
	poll := startPoller(statusPoll, func() { c.get("/api/jobs/{id}", "/api/jobs/"+r.JobID, r.JobID) })
	_, err = svc.Wait(ctx, r.JobID)
	poll.halt()
	if err != nil {
		r.Err = fmt.Errorf("waiting for %s: %w", r.JobID, err)
		return r
	}
	rep, err := c.report(r.JobID)
	r.Done = time.Now()
	if err != nil {
		r.Err = err
		return r
	}
	r.Report = rep
	r.OK = true
	r.Diagnosis = r.Done.Sub(due)
	if r.Job, err = svc.Get(r.JobID); err != nil {
		r.Err = err
		r.OK = false
		return r
	}
	if !withTrace {
		return r
	}
	if data, err := c.get("/api/jobs/{id}/trace", "/api/jobs/"+r.JobID+"/trace", r.JobID); err == nil {
		var tl obs.Timeline
		if json.Unmarshal(data, &tl) == nil {
			for _, s := range tl.Spans {
				if s.Name == "job" && s.Parent == 0 {
					r.QueueWait = s.Start.Sub(r.Job.SubmittedAt)
					r.HasQueueWait = true
					break
				}
			}
		}
	}
	return r
}

// openLoop fires fire(i, due) in its own goroutine at start+dues[i],
// whatever happened to earlier requests, and returns how late each
// send was. It returns once every request has been fired; the caller
// waits for the fired work.
func openLoop(ctx context.Context, start time.Time, dues []time.Duration, fire func(i int, due time.Time)) []time.Duration {
	lags := make([]time.Duration, 0, len(dues))
	for i, d := range dues {
		due := start.Add(d)
		if w := time.Until(due); w > 0 {
			t := time.NewTimer(w)
			select {
			case <-ctx.Done():
				t.Stop()
				return lags
			case <-t.C:
			}
		}
		lags = append(lags, time.Since(due))
		go fire(i, due)
	}
	return lags
}

// pacedLoop calls send(i) at start+dues[i], or as soon as send(i-1)
// has returned if that is later, so one request is in flight at a
// time. It returns how late each send was against its due time.
func pacedLoop(ctx context.Context, start time.Time, dues []time.Duration, send func(i int)) []time.Duration {
	lags := make([]time.Duration, 0, len(dues))
	for i, d := range dues {
		due := start.Add(d)
		if w := time.Until(due); w > 0 {
			t := time.NewTimer(w)
			select {
			case <-ctx.Done():
				t.Stop()
				return lags
			case <-t.C:
			}
		}
		lags = append(lags, time.Since(due))
		send(i)
		if ctx.Err() != nil {
			break
		}
	}
	return lags
}

// statsSample is one /api/stats reading.
type statsSample struct {
	QueueDepth int
	Busy       int
}

// poller runs fn every interval until stop is closed; wait returns
// once the goroutine has exited.
type poller struct {
	stop chan struct{}
	done chan struct{}
}

func startPoller(interval time.Duration, fn func()) *poller {
	p := &poller{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				fn()
			}
		}
	}()
	return p
}

func (p *poller) halt() {
	close(p.stop)
	<-p.done
}
