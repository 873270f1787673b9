package jobs

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"ion/internal/extractor"
	"ion/internal/ion"
	"ion/internal/issue"
	"ion/internal/llm/ledger"
	"ion/internal/obs"
	"ion/internal/quality"
	"ion/internal/rag"
	"ion/internal/semcache"
)

// Reuse-policy defaults. The verbatim tier tolerates only quantization
// jitter around an essentially identical signature; the conditioning
// band admits the same workload at a moderately different shape.
const (
	defaultSemReuseThreshold     = 0.995
	defaultSemConditionThreshold = 0.90
	// semHitRatioMinLookups is the traffic gate under which the
	// ion_semcache_hit_ratio gauge reports 1.0 so the collapse alert
	// stays quiet while there is too little traffic to judge.
	semHitRatioMinLookups = 20
)

// diagnose applies the semantic reuse ladder to one job and returns
// the terminal state to settle:
//
//  1. similarity ≥ SemReuseThreshold and the neighbor was a full
//     fan-out → serve the neighbor's report verbatim (StateReused, zero
//     LLM calls);
//  2. similarity ≥ SemConditionThreshold → run the analysis with the
//     neighbor's conclusions as retrieved context and its not-detected
//     verdicts adopted (fewer LLM calls);
//  3. otherwise → full fan-out.
//
// A conditioned report is never served verbatim: its adopted verdicts
// were judged on another trace, and copying it would pass them on to
// every later near-duplicate unchecked. A conditioned neighbor can
// still condition.
//
// Completed runs (full or conditioned) are indexed back into the
// store; verbatim hits are not re-indexed — their signature would
// duplicate the neighbor's neighborhood without adding information.
// Exact-hash dedup has already happened at Submit, so everything here
// is a genuinely new trace.
func (s *Service) diagnose(ctx context.Context, id, hash string, out *extractor.Output) (State, error) {
	if s.sem == nil {
		state, rep, cause := s.attempts(ctx, id, out, ion.AnalyzeOptions{})
		s.attachCost(id, 0, false)
		if state == StateDone && rep != nil {
			s.observeQuality(ctx, id, hash, out, rep, quality.ModeFull)
		}
		return state, cause
	}
	logger := obs.LoggerFrom(ctx)
	sig := semcache.Extract(out)
	_, span := obs.StartSpan(ctx, "semcache_lookup")
	match, ok := s.sem.Lookup(sig)
	span.End()
	if ok && s.semSim != nil {
		s.semSim.Observe(match.Similarity)
	}

	if ok && match.Entry.JobID != id && match.Similarity >= s.cfg.SemReuseThreshold &&
		match.Entry.Outcome != semcache.OutcomeConditioned {
		if rep, err := s.serveFromNeighbor(id, match); err == nil {
			logger.Info("semantic hit: serving prior diagnosis verbatim",
				"neighbor", match.Entry.JobID, "similarity", match.Similarity)
			s.sem.Note(semcache.OutcomeHit)
			s.mu.Lock()
			s.semHits++
			s.mu.Unlock()
			s.attachCost(id, 0, true)
			s.observeQuality(ctx, id, hash, out, rep, quality.ModeVerbatim)
			s.maybeShadow(id, out, rep, quality.ModeVerbatim, match.Deltas)
			return StateReused, nil
		} else {
			logger.Warn("semantic hit unusable, falling back",
				"neighbor", match.Entry.JobID, "err", err)
		}
	}

	opts := ion.AnalyzeOptions{}
	conditioned := false
	if ok && match.Entry.JobID != id && match.Similarity >= s.cfg.SemConditionThreshold {
		if o, err := s.conditionOn(match); err == nil {
			opts = o
			conditioned = true
			logger.Info("conditioning analysis on similar prior diagnosis",
				"neighbor", match.Entry.JobID, "similarity", match.Similarity,
				"adopted", len(o.Adopted))
		} else {
			logger.Warn("conditioning context unavailable, running cold",
				"neighbor", match.Entry.JobID, "err", err)
		}
	}
	if conditioned {
		s.sem.Note(semcache.OutcomeConditioned)
		s.mu.Lock()
		s.semConditioned++
		s.semAdopted += int64(len(opts.Adopted))
		s.mu.Unlock()
		s.setReuse(id, &Reuse{
			Mode:       ReuseConditioned,
			From:       match.Entry.JobID,
			Similarity: match.Similarity,
			Deltas:     match.Deltas,
		})
	} else {
		s.sem.Note(semcache.OutcomeMiss)
	}

	state, rep, cause := s.attempts(ctx, id, out, opts)
	s.attachCost(id, len(opts.Adopted), false)
	if state == StateDone && rep != nil {
		outcome := "full"
		mode := quality.ModeFull
		if conditioned {
			outcome = semcache.OutcomeConditioned
			mode = quality.ModeConditioned
		}
		s.indexResult(id, hash, sig, rep, outcome)
		s.observeQuality(ctx, id, hash, out, rep, mode)
		if conditioned {
			s.maybeShadow(id, out, rep, quality.ModeConditioned, match.Deltas)
		}
	}
	return state, cause
}

// serveFromNeighbor copies the neighbor's report onto this job and
// records the provenance, returning the served report so the caller
// can score and shadow it. The report is re-labeled with this job's
// trace name; everything else (diagnoses, summary, model) carries
// over.
func (s *Service) serveFromNeighbor(id string, m semcache.Match) (*ion.Report, error) {
	rep, err := s.store.Report(m.Entry.JobID)
	if err != nil {
		return nil, fmt.Errorf("loading neighbor report: %w", err)
	}
	rep.Trace = s.snapshotName(id)
	if err := s.store.PutReport(id, rep); err != nil {
		return nil, fmt.Errorf("persisting reused report: %w", err)
	}
	s.setReuse(id, &Reuse{
		Mode:       ReuseSemanticHit,
		From:       m.Entry.JobID,
		Similarity: m.Similarity,
		Deltas:     m.Deltas,
	})
	return rep, nil
}

// conditionOn builds the analyze options for the middle band: the
// neighbor's report is indexed with the rag TF-IDF index, each issue's
// prompt gets the most relevant chunks as retrieved context, and the
// neighbor's not-detected verdicts are adopted outright (no LLM call)
// — on a near-duplicate workload, re-asking about issues the neighbor
// ruled out is the bulk of the avoidable cost.
func (s *Service) conditionOn(m semcache.Match) (ion.AnalyzeOptions, error) {
	rep, err := s.store.Report(m.Entry.JobID)
	if err != nil {
		return ion.AnalyzeOptions{}, fmt.Errorf("loading neighbor report: %w", err)
	}
	ix, err := rag.IndexReport(rep, nil)
	if err != nil {
		return ion.AnalyzeOptions{}, fmt.Errorf("indexing neighbor report: %w", err)
	}
	if ix.Len() == 0 {
		return ion.AnalyzeOptions{}, errors.New("neighbor report has no indexable content")
	}
	opts := ion.AnalyzeOptions{
		Retrieved: map[issue.ID]string{},
		Adopted:   map[issue.ID]*ion.IssueDiagnosis{},
	}
	for _, iid := range rep.Order {
		d := rep.Diagnoses[iid]
		if d == nil {
			continue
		}
		if d.Verdict == issue.VerdictNotDetected {
			opts.Adopted[iid] = d
			continue
		}
		hits := ix.Query(string(iid)+" "+issue.Title(iid)+" "+d.Conclusion, 3)
		var b strings.Builder
		fmt.Fprintf(&b, "Neighbor trace %q (signature similarity %.3f) was diagnosed:\n\n",
			rep.Trace, m.Similarity)
		fmt.Fprintf(&b, "[%s] VERDICT: %s\n%s\n", iid, d.Verdict, strings.TrimSpace(d.Conclusion))
		for _, h := range hits {
			if h.Doc.ID == "diagnosis/"+string(iid) {
				continue // already included above
			}
			fmt.Fprintf(&b, "\n--- %s\n%s\n", h.Doc.ID, strings.TrimSpace(h.Doc.Text))
		}
		opts.Retrieved[iid] = b.String()
	}
	return opts, nil
}

// indexResult records a completed diagnosis in the semantic store.
func (s *Service) indexResult(id, hash string, sig semcache.Signature, rep *ion.Report, outcome string) {
	var issues []string
	for _, iid := range rep.Detected() {
		issues = append(issues, string(iid))
	}
	err := s.sem.Put(semcache.Entry{
		JobID:     id,
		TraceHash: hash,
		Trace:     rep.Trace,
		Signature: sig,
		Issues:    issues,
		Outcome:   outcome,
		CreatedAt: time.Now().UTC(),
	})
	if err != nil {
		s.log.Warn("indexing diagnosis into semantic cache", "job", id, "err", err)
	}
}

// setReuse attaches reuse provenance to a job; the next persist
// (transition or finish) writes it to disk.
func (s *Service) setReuse(id string, r *Reuse) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok {
		j.ReusedFrom = r
	}
}

// attachCost sums the job's ledger entries into Job.Cost, so the
// snapshot finish persists carries the attribution. adopted is how many
// verdicts a conditioned run adopted without fresh LLM calls; verbatim
// marks a semantic hit served with zero calls. No-op without a ledger.
func (s *Service) attachCost(id string, adopted int, verbatim bool) {
	if s.ledger == nil {
		return
	}
	sum := s.ledger.SumJob(id)
	c := &Cost{
		Calls:     sum.Calls,
		TokensIn:  sum.TokensIn,
		TokensOut: sum.TokensOut,
		EstUSD:    sum.CostUSD,
	}
	switch {
	case verbatim:
		c.ReusedRatio = 1
	case adopted > 0:
		// Fresh diagnosis calls only: the summary call happens either
		// way, so the ratio measures how much of the per-issue fan-out
		// the conditioning avoided.
		fresh := 0
		for _, e := range s.ledger.Entries(ledger.Filter{Job: id}) {
			if e.Template == "diagnosis" {
				fresh++
			}
		}
		c.ReusedRatio = float64(adopted) / float64(adopted+fresh)
	}
	s.mu.Lock()
	if j, ok := s.jobs[id]; ok {
		j.Cost = c
	}
	s.mu.Unlock()
}
