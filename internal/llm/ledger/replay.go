package ledger

import (
	"context"
	"fmt"

	"ion/internal/journal"
	"ion/internal/llm"
)

// Replay is a Client that answers from a text-captured ledger file:
// each incoming request is hashed with PromptHash and served the
// recorded response, so `ion -replay-ledger <file>` re-runs a recorded
// prompt set deterministically for drift regression testing.
type Replay struct {
	entries  map[string]Entry // PromptSHA -> newest text-bearing entry
	fallback llm.Client
}

// NewReplay loads a ledger journal and indexes its text-bearing
// entries (those recorded with -ledger-capture-text). Later entries
// for the same prompt hash win. Unreadable lines are skipped, same as
// store replay; a file with zero replayable entries is an error — a
// hash-only ledger cannot answer prompts.
func NewReplay(path string, fallback llm.Client) (*Replay, error) {
	entries := map[string]Entry{}
	err := journal.Scan(path, func(e Entry) {
		if e.PromptSHA != "" && e.ResponseText != "" {
			entries[e.PromptSHA] = e
		}
	})
	if err != nil {
		return nil, fmt.Errorf("ledger: replay: %w", err)
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("ledger: replay: %s has no text-captured entries (record with -ledger-capture-text)", path)
	}
	return &Replay{entries: entries, fallback: fallback}, nil
}

// Name identifies the replay backend (or the fallback's name when the
// replay is transparent over a live client).
func (r *Replay) Name() string {
	if r.fallback != nil {
		return r.fallback.Name()
	}
	return "ledger-replay"
}

// Len returns the number of replayable prompts.
func (r *Replay) Len() int { return len(r.entries) }

// Complete serves the recorded response for the request's prompt hash.
// A miss falls through to the fallback client when one is configured,
// and errors otherwise — strict replay surfaces drift instead of
// silently going live.
func (r *Replay) Complete(ctx context.Context, req llm.Request) (llm.Completion, error) {
	if err := ctx.Err(); err != nil {
		return llm.Completion{}, err
	}
	e, ok := r.entries[PromptHash(req)]
	if !ok {
		if r.fallback != nil {
			return r.fallback.Complete(ctx, req)
		}
		return llm.Completion{}, fmt.Errorf("ledger: replay: no recorded response for prompt %s (drift?)", PromptHash(req)[:12])
	}
	return llm.Completion{
		Content: e.ResponseText,
		Model:   e.Model,
		Usage:   llm.Usage{PromptTokens: e.TokensIn, CompletionTokens: e.TokensOut},
	}, nil
}
