package expertsim

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"ion/internal/extractor"
	"ion/internal/ion"
	"ion/internal/issue"
	"ion/internal/knowledge"
	"ion/internal/llm"
	"ion/internal/prompt"
	"ion/internal/testutil"
	"ion/internal/workloads"
)

// diagnose runs the full prompt → expertsim → parse loop for one issue
// on one workload.
func diagnose(t *testing.T, workload string, id issue.ID) *ion.IssueDiagnosis {
	t.Helper()
	out, _, err := testutil.Extracted(workload)
	if err != nil {
		t.Fatal(err)
	}
	kb := knowledge.NewBase(knowledge.FromExtract(out))
	req, err := prompt.NewBuilder(kb).Diagnosis(id, out)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := New().Complete(context.Background(), req)
	if err != nil {
		t.Fatalf("%s/%s: %v", workload, id, err)
	}
	d, err := ion.ParseCompletion(id, comp.Content)
	if err != nil {
		t.Fatalf("%s/%s: completion unparsable: %v\n---\n%s", workload, id, err, comp.Content)
	}
	return d
}

// TestVerdictsMatchGroundTruth is the core regression test of the
// reproduction: across every evaluation workload, every ground-truth
// issue must get its expected verdict and no unlisted issue may be
// "detected".
func TestVerdictsMatchGroundTruth(t *testing.T) {
	for _, w := range append(workloads.All(), workloads.Extras()...) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			want := map[issue.ID]issue.Verdict{}
			for _, e := range w.Truth {
				want[e.Issue] = e.Want
			}
			for _, id := range issue.All {
				d := diagnose(t, w.Name, id)
				if exp, listed := want[id]; listed {
					if d.Verdict != exp {
						t.Errorf("%s: verdict %s, want %s\nconclusion: %s", id, d.Verdict, exp, d.Conclusion)
					}
				} else if d.Verdict == issue.VerdictDetected {
					t.Errorf("%s: false positive (detected)\nconclusion: %s", id, d.Conclusion)
				}
			}
		})
	}
}

func TestCompletionFormat(t *testing.T) {
	d := diagnose(t, "ior-hard", issue.SmallIO)
	if len(d.Steps) < 3 {
		t.Errorf("expected >=3 reasoning steps, got %d", len(d.Steps))
	}
	for i, s := range d.Steps {
		if !strings.ContainsAny(s, "0123456789") {
			t.Errorf("step %d carries no computed number: %q", i, s)
		}
	}
	if !strings.Contains(d.Code, "pd.read_csv") {
		t.Error("code listing missing pandas analysis")
	}
	if !strings.Contains(d.Conclusion, "%") {
		t.Error("conclusion carries no quantification")
	}
}

func TestPaperShapeNumbers(t *testing.T) {
	// Paper row "IOR-Easy-2KB": ~99.8% misalignment; ops small but
	// sequential and aggregatable; shared file without stripe overlap.
	mis := diagnose(t, "ior-easy-2k-shared", issue.MisalignedIO)
	if !strings.Contains(mis.Conclusion, "99.8") {
		t.Errorf("2KB misalignment should be ~99.8%%: %s", mis.Conclusion)
	}
	shared := diagnose(t, "ior-easy-2k-shared", issue.SharedFile)
	if !strings.Contains(shared.Conclusion, "no overlapping operations within the same stripe") {
		t.Errorf("shared-file conclusion should rule out stripe overlap: %s", shared.Conclusion)
	}
	// Paper row "IOR-Easy-1MB": 0.0% misalignment over 8192 ops.
	mis1m := diagnose(t, "ior-easy-1m-shared", issue.MisalignedIO)
	if !strings.Contains(mis1m.Conclusion, "8192") {
		t.Errorf("1MB misalignment conclusion should count 8192 ops: %s", mis1m.Conclusion)
	}
	if !strings.Contains(mis1m.Conclusion, "0.00%") {
		t.Errorf("1MB misalignment should be 0.00%%: %s", mis1m.Conclusion)
	}
	// Paper: interface insight names POSIX-only usage with multiple ranks.
	iface := diagnose(t, "ior-easy-1m-fpp", issue.Interface)
	if !strings.Contains(iface.Conclusion, "only using POSIX") {
		t.Errorf("interface conclusion: %s", iface.Conclusion)
	}
	// Paper: E2E baseline names rank 0 as the overloaded rank.
	imb := diagnose(t, "e2e-baseline", issue.LoadImbalance)
	if !strings.Contains(imb.Conclusion, "rank 0") {
		t.Errorf("imbalance conclusion must name rank 0: %s", imb.Conclusion)
	}
	// Paper: E2E optimized attributes the skew to a subset and calls it
	// possibly intentional.
	sub := diagnose(t, "e2e-optimized", issue.LoadImbalance)
	if !strings.Contains(sub.Conclusion, "subset") || !strings.Contains(sub.Conclusion, "1024") {
		t.Errorf("subset conclusion: %s", sub.Conclusion)
	}
	if !strings.Contains(sub.Conclusion, "intentional") && !strings.Contains(sub.Conclusion, "aggregator") {
		t.Errorf("subset conclusion should flag possible intent: %s", sub.Conclusion)
	}
}

func TestSummary(t *testing.T) {
	out, _, err := testutil.Extracted("ior-hard")
	if err != nil {
		t.Fatal(err)
	}
	kb := knowledge.NewBase(knowledge.FromExtract(out))
	b := prompt.NewBuilder(kb)
	client := New()
	conclusions := map[issue.ID]string{}
	for _, id := range []issue.ID{issue.SmallIO, issue.SharedFile, issue.Metadata} {
		req, err := b.Diagnosis(id, out)
		if err != nil {
			t.Fatal(err)
		}
		comp, err := client.Complete(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		d, err := ion.ParseCompletion(id, comp.Content)
		if err != nil {
			t.Fatal(err)
		}
		conclusions[id] = d.Conclusion + "\n" + prompt.VerdictPrefix + " " + string(d.Verdict)
	}
	sreq := b.Summary(conclusions)
	comp, err := client.Complete(context.Background(), sreq)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(comp.Content, "Global I/O Diagnosis Summary") {
		t.Errorf("summary header missing: %s", comp.Content)
	}
	if !strings.Contains(comp.Content, "Issues requiring attention") {
		t.Errorf("summary lacks detected-issue section: %s", comp.Content)
	}
	if !strings.Contains(comp.Content, "Recommended next steps") {
		t.Errorf("summary lacks recommendations: %s", comp.Content)
	}
}

func TestSummaryEmptyPromptFails(t *testing.T) {
	req := llm.Request{
		Messages: []llm.Message{{Role: llm.RoleUser, Content: "# Summarization request\n\nnothing here"}},
		Metadata: map[string]string{prompt.MetaKind: prompt.KindSummary},
	}
	if _, err := New().Complete(context.Background(), req); err == nil {
		t.Error("summary without diagnosis blocks should fail")
	}
}

func TestChat(t *testing.T) {
	contextText := `[small-io] Small I/O Operations
VERDICT: detected
The application exhibits a repetitive pattern of small requests: 99.00% of operations are below the stripe unit.
  step 1: Computed the access-size distribution.

[shared-file] Shared-File Access Contention
VERDICT: mitigated
No overlapping operations within the same stripe.
`
	b := prompt.NewBuilder(knowledge.NewBase(knowledge.DefaultHyperparams()))
	req := b.Chat(contextText, nil, "Why are the small writes a problem, and how do I fix them?")
	comp, err := New().Complete(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(comp.Content, "Small I/O") {
		t.Errorf("chat answer should route to the small-io section: %s", comp.Content)
	}
	if !strings.Contains(comp.Content, "remedy") && !strings.Contains(comp.Content, "Batch") {
		t.Errorf("fix-seeking question should include a recommendation: %s", comp.Content)
	}

	// Lock/contention questions route to shared-file.
	req2 := b.Chat(contextText, nil, "Did you see any lock contention on the stripes?")
	comp2, err := New().Complete(context.Background(), req2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(comp2.Content, "Shared-File") {
		t.Errorf("chat answer should route to shared-file: %s", comp2.Content)
	}
}

func TestChatErrors(t *testing.T) {
	c := New()
	_, err := c.Complete(context.Background(), llm.Request{
		Messages: []llm.Message{{Role: llm.RoleUser, Content: "# Interactive question\n\nno sections"}},
		Metadata: map[string]string{prompt.MetaKind: prompt.KindChat},
	})
	if err == nil {
		t.Error("malformed chat prompt accepted")
	}
}

func TestDiagnosisErrors(t *testing.T) {
	c := New()
	// Unknown issue.
	_, err := c.Complete(context.Background(), llm.Request{
		Messages: []llm.Message{{Role: llm.RoleUser, Content: "# Diagnosis request\n\nIssue-ID: bogus\n"}},
		Metadata: map[string]string{prompt.MetaKind: prompt.KindDiagnosis},
	})
	if err == nil {
		t.Error("unknown issue accepted")
	}
	// No CSV location.
	_, err = c.Complete(context.Background(), llm.Request{
		Messages: []llm.Message{{Role: llm.RoleUser, Content: "# Diagnosis request\n\nIssue-ID: small-io\n"}},
		Metadata: map[string]string{prompt.MetaKind: prompt.KindDiagnosis},
	})
	if err == nil {
		t.Error("request without CSVs accepted")
	}
	// Unclassifiable request.
	_, err = c.Complete(context.Background(), llm.Request{
		Messages: []llm.Message{{Role: llm.RoleUser, Content: "hello"}},
	})
	if err == nil {
		t.Error("unclassifiable request accepted")
	}
}

func TestClassify(t *testing.T) {
	cases := map[string]string{
		"# Diagnosis request: x":    prompt.KindDiagnosis,
		"# Summarization request":   prompt.KindSummary,
		"# Interactive question":    prompt.KindChat,
		"something else completely": "",
	}
	for content, want := range cases {
		if got := classify(content); got != want {
			t.Errorf("classify(%q) = %q, want %q", content, got, want)
		}
	}
}

func TestParseHyper(t *testing.T) {
	content := "## System hyper-parameters\n\n- lustre_stripe_size = 65536 bytes\n- rpc_size = 262144 bytes\n- mem_alignment = 16 bytes\n"
	h := parseHyper(content)
	if h.StripeSize != 65536 || h.RPCSize != 262144 || h.MemAlignment != 16 {
		t.Errorf("parseHyper = %+v", h)
	}
	// Defaults survive garbage.
	h2 := parseHyper("- lustre_stripe_size = -5 bytes\n")
	if h2.StripeSize != knowledge.DefaultHyperparams().StripeSize {
		t.Errorf("negative stripe accepted: %+v", h2)
	}
}

func TestEnvCaching(t *testing.T) {
	out, dir, err := testutil.Extracted("ior-easy-1m-shared")
	if err != nil {
		t.Fatal(err)
	}
	_ = out
	c := New()
	loads := 0
	c.LoadDir = func(d string) (*extractor.Output, error) {
		loads++
		return extractor.LoadDir(d)
	}
	kb := knowledge.NewBase(knowledge.DefaultHyperparams())
	b := prompt.NewBuilder(kb)
	reload, err := extractor.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	reload.Paths = map[string]string{}
	for name := range reload.Tables {
		reload.Paths[name] = dir + "/" + name + ".csv"
	}
	for _, id := range []issue.ID{issue.SmallIO, issue.MisalignedIO, issue.SharedFile} {
		req, err := b.Diagnosis(id, reload)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Complete(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	if loads != 1 {
		t.Errorf("CSV dir loaded %d times, want 1 (cache miss)", loads)
	}
}

func TestFirstSentences(t *testing.T) {
	text := "First point. Second point. Third point."
	if got := firstSentences(text, 1); got != "First point." {
		t.Errorf("got %q", got)
	}
	if got := firstSentences(text, 2); got != "First point. Second point." {
		t.Errorf("got %q", got)
	}
	// Decimal points must not split sentences.
	dec := "The rate is 99.8% of operations. Second."
	if got := firstSentences(dec, 1); !strings.Contains(got, "99.8%") {
		t.Errorf("decimal split: %q", got)
	}
}

func TestChatAnaphoricFollowUp(t *testing.T) {
	contextText := `[load-imbalance] Imbalanced I/O Workload
VERDICT: detected
Severe load imbalance detected: rank 0 performs most bytes.

[small-io] Small I/O Operations
VERDICT: mitigated
Small but consecutive operations aggregate fine.
`
	b := prompt.NewBuilder(knowledge.NewBase(knowledge.DefaultHyperparams()))
	client := New()

	// Turn 1 establishes the topic.
	req1 := b.Chat(contextText, nil, "Which rank causes the load imbalance?")
	a1, err := client.Complete(context.Background(), req1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(a1.Content, "Imbalanced I/O Workload") {
		t.Fatalf("turn 1 off-topic: %s", a1.Content)
	}

	// Turn 2 is anaphoric: no topic words of its own.
	history := []llm.Message{
		{Role: llm.RoleUser, Content: "Which rank causes the load imbalance?"},
		{Role: llm.RoleAssistant, Content: a1.Content},
	}
	req2 := b.Chat(contextText, history, "Why is that happening?")
	a2, err := client.Complete(context.Background(), req2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(a2.Content, "Imbalanced I/O Workload") {
		t.Errorf("follow-up lost the topic: %s", a2.Content)
	}
}

// TestEnvCacheBounded: after more distinct CSV directories than the
// bound, the client holds at most maxEnvs environments, and an evicted
// directory is reloaded and diagnosed byte-identically.
func TestEnvCacheBounded(t *testing.T) {
	out, _, err := testutil.Extracted("ior-easy-2k-shared")
	if err != nil {
		t.Fatal(err)
	}
	c := New()
	loads := map[string]int{}
	c.LoadDir = func(d string) (*extractor.Output, error) {
		loads[d]++ // LoadDir runs under the client's lock
		return out, nil
	}
	b := prompt.NewBuilder(knowledge.NewBase(knowledge.FromExtract(out)))
	complete := func(dir string) string {
		t.Helper()
		req, err := b.Diagnosis(issue.SharedFile, out)
		if err != nil {
			t.Fatal(err)
		}
		req.Metadata[prompt.MetaCSVDir] = dir
		comp, err := c.Complete(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		return comp.Content
	}
	first := complete("/csv/job-0")
	for i := 1; i <= 2*maxEnvs; i++ {
		complete(fmt.Sprintf("/csv/job-%d", i))
	}
	c.mu.Lock()
	held, order := len(c.envs), len(c.lru)
	c.mu.Unlock()
	if held > maxEnvs || held != order {
		t.Fatalf("client holds %d envs (%d in LRU order), bound %d", held, order, maxEnvs)
	}
	again := complete("/csv/job-0")
	if loads["/csv/job-0"] != 2 {
		t.Errorf("evicted directory loaded %d times, want 2", loads["/csv/job-0"])
	}
	if again != first {
		t.Errorf("re-diagnosis of an evicted directory differs:\n--- first ---\n%s\n--- again ---\n%s", first, again)
	}
	// A hit refreshes recency: after maxEnvs-1 misses job-0 is the
	// oldest entry; hitting it makes the next miss evict another.
	for i := 0; i < maxEnvs-1; i++ {
		complete(fmt.Sprintf("/csv/new-%d", i))
	}
	complete("/csv/job-0")
	complete("/csv/one-more")
	complete("/csv/job-0")
	if loads["/csv/job-0"] != 2 {
		t.Errorf("recently used directory was evicted (loaded %d times)", loads["/csv/job-0"])
	}
}
