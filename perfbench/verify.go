package main

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"

	"ion/internal/expertsim"
	"ion/internal/ion"
	"ion/internal/issue"
	"ion/internal/jobs"
)

// gate checks every served report against the reference verdicts of
// its own trace, computed by a direct ion.Framework.AnalyzeLog. A report
// served on the full path or as a verbatim semantic hit must match that
// reference; the first mismatch fails the run. Only a conditioned run
// is exempt: it adopts its neighbor's not-detected verdicts by design.
// Its mismatches are counted (ConditionedMismatches), not failed.
type gate struct {
	refs    map[string]*reference  // by submission Source
	drifts  map[string]*submission // drift submissions, by Source
	fw      *ion.Framework
	workDir string

	Checked, Conditioned, ConditionedMismatches int
}

func newGate(refs map[string]*reference, workDir string) (*gate, error) {
	fw, err := ion.New(ion.Config{Client: expertsim.New()})
	if err != nil {
		return nil, err
	}
	all := make(map[string]*reference, len(refs))
	for k, v := range refs {
		all[k] = v
	}
	return &gate{refs: all, drifts: map[string]*submission{}, fw: fw, workDir: workDir}, nil
}

// add registers the drift submissions among rs, whose references are
// computed on first use.
func (g *gate) add(rs []*jobResult) {
	for _, r := range rs {
		if r.Sub.drift != nil {
			g.drifts[r.Sub.Source] = r.Sub
		}
	}
}

// reference returns the reference of a source, computing a drifted
// trace's reference on first use (after the measured window).
func (g *gate) reference(source string) (*reference, error) {
	if ref, ok := g.refs[source]; ok {
		return ref, nil
	}
	sub, ok := g.drifts[source]
	if !ok {
		return nil, fmt.Errorf("no reference for trace %q", source)
	}
	ref, err := analyzeReference(context.Background(), g.fw, sub.Name, sub.drift, filepath.Join(g.workDir, source))
	if err != nil {
		return nil, err
	}
	g.refs[source] = ref
	return ref, nil
}

// check verifies every successful result against its own trace's
// reference; the first mismatch on the full or verbatim path fails the
// run.
func (g *gate) check(rs []*jobResult) error {
	for _, r := range rs {
		if !r.OK {
			continue
		}
		ref, err := g.reference(r.Sub.Source)
		if err != nil {
			return fmt.Errorf("verdict check: %w", err)
		}
		bad := mismatches(r.Report, ref.Verdicts)
		path := "full"
		if reuse := r.Job.ReusedFrom; reuse != nil {
			if reuse.Mode == jobs.ReuseConditioned {
				g.Conditioned++
				if len(bad) > 0 {
					g.ConditionedMismatches++
				}
				continue
			}
			path = reuse.Mode + " from " + reuse.From
		}
		if len(bad) > 0 {
			return fmt.Errorf("verdict check: job %s (%s, %s, %s): %s", r.JobID, r.Sub.Name, r.Sub.Format, path, strings.Join(bad, "; "))
		}
		g.Checked++
	}
	return nil
}

// mismatches lists the issues whose served verdict differs from want.
func mismatches(rep *ion.Report, want map[issue.ID]issue.Verdict) []string {
	var bad []string
	for _, id := range issue.All {
		if got := rep.Verdict(id); got != want[id] {
			bad = append(bad, fmt.Sprintf("%s: served %s, reference %s", id, got, want[id]))
		}
	}
	return bad
}
