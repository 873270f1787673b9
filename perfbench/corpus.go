package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"ion/internal/darshan"
	"ion/internal/workloads"
)

// corpusTrace is one generated iongen trace, rendered once. Copies sent
// to the service differ from it only in the header job id.
type corpusTrace struct {
	Workload string
	Log      *darshan.Log
	// textPre and textPost surround the "# jobid: N" header line of the
	// darshan-parser text rendering, so a copy with a fresh job id is
	// three slices, not a re-render.
	textPre, textPost []byte
}

// buildCorpus generates the 12 iongen traces: the 10 paper workloads
// plus healthy-checkpoint and stdio-postprocess. The traces themselves
// do not depend on the seed.
func buildCorpus() ([]*corpusTrace, error) {
	var out []*corpusTrace
	for _, w := range append(workloads.All(), workloads.Extras()...) {
		log, err := w.Generate()
		if err != nil {
			return nil, fmt.Errorf("corpus: %w", err)
		}
		ct, err := newCorpusTrace(w.Name, log)
		if err != nil {
			return nil, err
		}
		out = append(out, ct)
	}
	return out, nil
}

func newCorpusTrace(name string, log *darshan.Log) (*corpusTrace, error) {
	var text bytes.Buffer
	if err := log.WriteText(&text); err != nil {
		return nil, fmt.Errorf("corpus: rendering %s: %w", name, err)
	}
	if err := log.WriteDXTText(&text); err != nil {
		return nil, fmt.Errorf("corpus: rendering %s: %w", name, err)
	}
	line := []byte(fmt.Sprintf("# jobid: %d\n", log.Header.JobID))
	i := bytes.Index(text.Bytes(), line)
	if i < 0 {
		return nil, fmt.Errorf("corpus: %s: no jobid header line", name)
	}
	b := text.Bytes()
	return &corpusTrace{Workload: name, Log: log, textPre: b[:i], textPost: b[i+len(line):]}, nil
}

// textParts returns the text rendering with the given header job id as
// slices that concatenate to the full body.
func (c *corpusTrace) textParts(jobID int64) [][]byte {
	return [][]byte{c.textPre, []byte(fmt.Sprintf("# jobid: %d\n", jobID)), c.textPost}
}

// binaryWithJobID renders the binary container with the given header
// job id.
func binaryWithJobID(log *darshan.Log, jobID int64) ([]byte, error) {
	cp := *log
	cp.Header.JobID = jobID
	var b bytes.Buffer
	if err := cp.WriteBinary(&b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// Trace formats a submission can carry.
const (
	formatBinary = "binary"
	formatText   = "text"
	formatStream = "stream"
)

// submission is one planned request: which trace, in which format,
// with which header job id, and (open loop) when it is due.
type submission struct {
	// Source keys the reference verdicts of the trace: the workload
	// name of a corpus copy, "drift-<n>" for a drifted near-dup copy,
	// or "stream" for the tiled stream trace.
	Source string
	// Name is the ?name= display label; corpus copies carry their
	// workload name so the quality observatory attaches its labels.
	Name        string
	Format      string
	HeaderJobID int64
	// Due is the send time relative to the window start (open loop).
	Due time.Duration

	trace  *corpusTrace
	bin    []byte       // pre-rendered binary container
	drift  *darshan.Log // the drifted log of a drift submission
	stream *streamTrace // the tiled trace of a stream submission
}

// body returns the request body and its length. A stream body is
// rendered into the stream trace's buffer and is valid until the next
// stream submission's body is taken.
func (s *submission) body() (io.Reader, int64) {
	switch s.Format {
	case formatBinary:
		return bytes.NewReader(s.bin), int64(len(s.bin))
	case formatStream:
		b := s.stream.render(s.HeaderJobID)
		return bytes.NewReader(b), int64(len(b))
	}
	parts := s.trace.textParts(s.HeaderJobID)
	readers := make([]io.Reader, len(parts))
	var n int64
	for i, p := range parts {
		readers[i] = bytes.NewReader(p)
		n += int64(len(p))
	}
	return io.MultiReader(readers...), n
}

// headerJobID draws a 9-digit scheduler job id.
func headerJobID(rng *rand.Rand) int64 { return 100000000 + rng.Int63n(900000000) }

// planOpenLoop lays out n submissions of an open loop at rate per
// second: the seed fixes the corpus order, the header job ids and the
// arrival jitter (±40% of the interval, so arrivals stay in order).
// Every driftEvery-th submission (0 = none) is a drifted copy; the
// k-th one drifts corpus trace k (in corpus order, not the seed's), so
// every run drifts the same traces by the same amounts and the LLM work
// they cause does not depend on the seed. The other submissions
// alternate binary and text, and the alternation shifts by one each
// pass over the corpus so every trace is sent in both formats whatever
// the order. Binary bodies are rendered here, before the window opens.
func planOpenLoop(corpus []*corpusTrace, seed int64, rate float64, n, driftEvery int) ([]*submission, error) {
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(len(corpus))
	interval := float64(time.Second) / rate
	subs := make([]*submission, n)
	drifts := 0
	for i := range subs {
		ct := corpus[order[i%len(order)]]
		s := &submission{
			Source:      ct.Workload,
			Name:        ct.Workload,
			Format:      formatBinary,
			HeaderJobID: headerJobID(rng),
			Due:         dueAt(rng, interval, i),
			trace:       ct,
		}
		switch {
		case driftEvery > 0 && i%driftEvery == driftEvery-1:
			base := corpus[drifts%len(corpus)]
			s.Source = fmt.Sprintf("drift-%d", drifts)
			s.Name = fmt.Sprintf("%s-drift-%d", base.Workload, drifts)
			s.trace = base
			s.drift = driftLog(base.Log, float64(1+drifts/len(corpus)))
			drifts++
		case (i+i/len(order))%2 == 1:
			s.Format = formatText
		}
		if s.Format == formatBinary {
			log := s.trace.Log
			if s.drift != nil {
				log = s.drift
			}
			bin, err := binaryWithJobID(log, s.HeaderJobID)
			if err != nil {
				return nil, fmt.Errorf("plan: %w", err)
			}
			s.bin = bin
		}
		subs[i] = s
	}
	return subs, nil
}

// dueAt is the i-th send time of a schedule with the given interval,
// jittered by ±40% of the interval so sends stay in order.
func dueAt(rng *rand.Rand, interval float64, i int) time.Duration {
	return max(0, time.Duration(interval*(float64(i)+0.4*(2*rng.Float64()-1))))
}

// planStream lays out n chunked uploads of the tiled stream trace at
// rate per second; the seed fixes the header job ids and the jitter.
// Bodies are rendered at send time: one is ~10 MiB.
func planStream(st *streamTrace, seed int64, rate float64, n int) []*submission {
	rng := rand.New(rand.NewSource(seed))
	interval := float64(time.Second) / rate
	subs := make([]*submission, n)
	for i := range subs {
		subs[i] = &submission{
			Source:      "stream",
			Name:        streamWorkload + "-tiled",
			Format:      formatStream,
			HeaderJobID: headerJobID(rng),
			Due:         dueAt(rng, interval, i),
			stream:      st,
		}
	}
	return subs
}

// driftLog returns a copy of log whose POSIX records carry extra stat
// calls — scale × their data operations — so its counter signature
// moves away from the corpus shape (into the semantic cache's
// conditioning band or beyond) while staying a valid log. The source
// log is not modified.
func driftLog(log *darshan.Log, scale float64) *darshan.Log {
	cp := *log
	cp.Modules = make(map[string]*darshan.Module, len(log.Modules))
	for name, m := range log.Modules {
		if name != darshan.ModPOSIX {
			cp.Modules[name] = m
			continue
		}
		nm := &darshan.Module{Name: m.Name, Records: make([]*darshan.Record, len(m.Records))}
		for i, r := range m.Records {
			nr := darshan.NewRecord(r.FileID, r.Rank)
			for k, v := range r.Counters {
				nr.Counters[k] = v
			}
			for k, v := range r.FCounters {
				nr.FCounters[k] = v
			}
			ops := r.C(darshan.CPosixReads) + r.C(darshan.CPosixWrites)
			nr.Add(darshan.CPosixStats, int64(math.Round(scale*float64(ops))))
			nm.Records[i] = nr
		}
		cp.Modules[name] = nm
	}
	return &cp
}

// streamTrace is the stream-large body: one corpus trace's text
// rendering tiled to at least minBytes, as ionbench's tileTrace does
// (repeated counter lines overwrite, DXT events accumulate: still a
// valid log). Copies differ only in the header job id of every tile.
type streamTrace struct {
	trace    *corpusTrace
	minBytes int
	buf      []byte
}

// render rebuilds the tiled body with the given job id into the
// reusable buffer; the result is valid until the next call.
func (st *streamTrace) render(jobID int64) []byte {
	st.buf = st.buf[:0]
	parts := st.trace.textParts(jobID)
	for len(st.buf) < st.minBytes {
		for _, p := range parts {
			st.buf = append(st.buf, p...)
		}
	}
	return st.buf
}
