// Package expertsim implements a deterministic, offline simulation of
// the I/O-expert language model ION queries (the paper used GPT-4 via
// the OpenAI Assistants API). It consumes the exact prompts the ION
// Analyzer constructs, plans an issue-specific analysis program,
// executes it against the extracted CSV files (the Assistants
// code-interpreter analogue, backed by internal/analysis), and responds
// in the instructed output format: chain-of-thought steps, the analysis
// code, and a grounded conclusion with a verdict line.
//
// Substituting this model for GPT-4 keeps the entire ION pipeline —
// prompt construction, parallel fan-out, completion parsing, global
// summarization, and the interactive interface — identical and fully
// reproducible. A real endpoint can be swapped in through llm.OpenAI
// without touching the pipeline.
package expertsim

import (
	"context"
	"fmt"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"

	"ion/internal/analysis"
	"ion/internal/extractor"
	"ion/internal/issue"
	"ion/internal/knowledge"
	"ion/internal/llm"
	"ion/internal/prompt"
)

// ModelName is reported in completions.
const ModelName = "ion-expertsim-1"

// Client is the simulated expert model. It is safe for concurrent use.
type Client struct {
	// LoadDir loads extracted CSVs; tests may override it.
	LoadDir func(dir string) (*extractor.Output, error)

	mu   sync.Mutex
	envs map[string]*analysis.Env
	lru  []string // keys of envs, least recently used first
}

// maxEnvs bounds the analysis environments a Client keeps. A job's
// per-issue fan-out shares one environment, and every job has its own
// CSV directory, so a few entries cover the jobs in flight; an
// unbounded cache would grow with every job served.
const maxEnvs = 8

// New returns a simulated expert client.
func New() *Client {
	return &Client{LoadDir: extractor.LoadDir, envs: map[string]*analysis.Env{}}
}

// Name implements llm.Client.
func (c *Client) Name() string { return "expertsim" }

// Complete implements llm.Client by dispatching on the request kind.
func (c *Client) Complete(ctx context.Context, req llm.Request) (llm.Completion, error) {
	if err := ctx.Err(); err != nil {
		return llm.Completion{}, fmt.Errorf("expertsim: %w", err)
	}
	content := userContent(req)
	kind := req.Metadata[prompt.MetaKind]
	if kind == "" {
		kind = classify(content)
	}
	var (
		out string
		err error
	)
	switch kind {
	case prompt.KindDiagnosis:
		out, err = c.diagnose(req, content)
	case prompt.KindSummary:
		out, err = summarize(content)
	case prompt.KindChat:
		out, err = chat(content)
	default:
		return llm.Completion{}, fmt.Errorf("expertsim: cannot classify request (kind %q)", kind)
	}
	if err != nil {
		return llm.Completion{}, err
	}
	return llm.Completion{
		Content: out,
		Model:   ModelName,
		Usage: llm.Usage{
			PromptTokens:     llm.PromptTokens(req),
			CompletionTokens: llm.EstimateTokens(out),
		},
	}, nil
}

// userContent concatenates the user-role messages.
func userContent(req llm.Request) string {
	var b strings.Builder
	for _, m := range req.Messages {
		if m.Role == llm.RoleUser {
			b.WriteString(m.Content)
			b.WriteString("\n")
		}
	}
	return b.String()
}

// classify infers the request kind from prompt structure when metadata
// is absent (e.g. replayed or hand-written requests).
func classify(content string) string {
	switch {
	case strings.Contains(content, "# Diagnosis request"):
		return prompt.KindDiagnosis
	case strings.Contains(content, "# Summarization request"):
		return prompt.KindSummary
	case strings.Contains(content, "# Interactive question"):
		return prompt.KindChat
	}
	return ""
}

var issueIDRe = regexp.MustCompile(`(?m)^Issue-ID:\s*([a-z-]+)\s*$`)

// diagnose runs the per-issue analysis plan.
func (c *Client) diagnose(req llm.Request, content string) (string, error) {
	id := issue.ID(req.Metadata[prompt.MetaIssue])
	if id == "" {
		if m := issueIDRe.FindStringSubmatch(content); m != nil {
			id = issue.ID(m[1])
		}
	}
	if !issue.Valid(id) {
		return "", fmt.Errorf("expertsim: diagnosis prompt does not identify a known issue (got %q)", id)
	}
	env, err := c.envFor(req, content)
	if err != nil {
		return "", err
	}
	p, err := planFor(id, env)
	if err != nil {
		return "", fmt.Errorf("expertsim: planning %s: %w", id, err)
	}
	return p.render(), nil
}

// envFor resolves and caches the analysis environment for the request's
// CSV directory.
func (c *Client) envFor(req llm.Request, content string) (*analysis.Env, error) {
	dir := req.Metadata[prompt.MetaCSVDir]
	if dir == "" && len(req.Files) > 0 {
		dir = filepath.Dir(req.Files[0])
	}
	if dir == "" {
		return nil, fmt.Errorf("expertsim: request attaches no CSV files and names no CSV directory")
	}
	hyper := parseHyper(content)
	key := dir + "|" + fmt.Sprint(hyper)
	c.mu.Lock()
	defer c.mu.Unlock()
	if env, ok := c.envs[key]; ok {
		i := slices.Index(c.lru, key)
		c.lru = append(append(c.lru[:i], c.lru[i+1:]...), key)
		return env, nil
	}
	out, err := c.LoadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("expertsim: loading trace CSVs: %w", err)
	}
	env := analysis.NewEnv(out, hyper)
	c.envs[key] = env
	c.lru = append(c.lru, key)
	if len(c.lru) > maxEnvs {
		delete(c.envs, c.lru[0])
		c.lru = c.lru[1:]
	}
	return env, nil
}

var hyperRe = regexp.MustCompile(`(?m)^- (lustre_stripe_size|rpc_size|mem_alignment) = (\d+) bytes$`)

// parseHyper reads the system hyper-parameters from the prompt; the
// prompt is the interface, so the simulated expert honors exactly what
// it was told.
func parseHyper(content string) knowledge.Hyperparams {
	h := knowledge.DefaultHyperparams()
	for _, m := range hyperRe.FindAllStringSubmatch(content, -1) {
		v, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil || v <= 0 {
			continue
		}
		switch m[1] {
		case "lustre_stripe_size":
			h.StripeSize = v
		case "rpc_size":
			h.RPCSize = v
		case "mem_alignment":
			h.MemAlignment = v
		}
	}
	return h
}

// plan is one completed diagnosis: the three output sections.
type plan struct {
	Steps      []string
	Code       string
	Conclusion string
	Verdict    issue.Verdict
}

// render produces the completion text in the instructed format.
func (p plan) render() string {
	var b strings.Builder
	b.WriteString(prompt.SectionSteps + "\n")
	for i, s := range p.Steps {
		fmt.Fprintf(&b, "%d. %s\n", i+1, s)
	}
	b.WriteString("\n" + prompt.SectionCode + "\n")
	b.WriteString("```python\n")
	b.WriteString(strings.TrimSpace(p.Code))
	b.WriteString("\n```\n")
	b.WriteString("\n" + prompt.SectionConclusion + "\n")
	b.WriteString(strings.TrimSpace(p.Conclusion))
	fmt.Fprintf(&b, "\n%s %s\n", prompt.VerdictPrefix, p.Verdict)
	return b.String()
}

// planFor dispatches to the per-issue planner.
func planFor(id issue.ID, env *analysis.Env) (plan, error) {
	switch id {
	case issue.SmallIO:
		return planSmallIO(env)
	case issue.MisalignedIO:
		return planAlignment(env)
	case issue.RandomAccess:
		return planRandom(env)
	case issue.SharedFile:
		return planSharedFile(env)
	case issue.LoadImbalance:
		return planImbalance(env)
	case issue.Metadata:
		return planMetadata(env)
	case issue.Interface:
		return planInterface(env)
	case issue.CollectiveIO:
		return planCollective(env)
	case issue.TimeImbalance:
		return planTimeImbalance(env)
	}
	return plan{}, fmt.Errorf("expertsim: no planner for issue %q", id)
}
