package core

import (
	"context"
	"errors"
	"fmt"

	"gpssn/internal/roadnet"
)

// ErrCancelled is wrapped into the error QueryCtx/QueryTopKCtx return when
// the caller's context is cancelled mid-query. errors.Is matches both this
// sentinel and context.Canceled on the returned error.
var ErrCancelled = errors.New("core: query cancelled")

// ErrDeadlineExceeded is the ErrCancelled analogue for a context whose
// deadline passed. errors.Is matches both this sentinel and
// context.DeadlineExceeded on the returned error.
var ErrDeadlineExceeded = errors.New("core: query deadline exceeded")

// ContextError maps a context's termination reason onto the engine's typed
// sentinels, wrapping the context error so errors.Is works for either. It
// returns nil while ctx is live.
func ContextError(ctx context.Context) error {
	err := ctx.Err()
	if err == nil {
		return nil
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%w: %w", ErrDeadlineExceeded, err)
	}
	return fmt.Errorf("%w: %w", ErrCancelled, err)
}

// Budget caps the work one query may spend. Unlike cancellation — which
// aborts with an error — an exhausted budget degrades gracefully: the query
// returns the best answer it fully evaluated before the cap, flagged
// Stats.Truncated, and never a silently-wrong "optimal". Soundness comes
// from the abort discipline of the checked road-network searches: an
// interrupted search yields +Inf for every output rather than partial
// values, so every finite distance a truncated query reports is exact and
// every returned group is genuinely feasible.
type Budget struct {
	// MaxSettledVertices caps the road-search work units one query may
	// consume across all of its searches: settled vertices for
	// Dijkstra/CH-style scans, merged label entries for the hub-label
	// kernel. 0 = unlimited.
	MaxSettledVertices int64
	// MaxRefinedAnchors caps how many anchor candidates refinement fully
	// evaluates (in the pruning-optimal duq order). 0 = unlimited.
	MaxRefinedAnchors int
}

// arm equips the query context with a cooperative checkpoint when the
// caller supplied a cancellable/deadlined context or a search budget; with
// neither, q.ck stays nil and every checked code path collapses to the
// original unchecked behavior (bit-identical answers).
func (q *qctx) arm(ctx context.Context, b Budget) {
	q.ctx = ctx
	q.maxAnchors = b.MaxRefinedAnchors
	if ctx.Done() == nil && b.MaxSettledVertices == 0 {
		return
	}
	q.ck = roadnet.NewCheckpoint(ctx.Done(), func() error { return ContextError(ctx) }, b.MaxSettledVertices)
}

// cancelled reports whether the query should abort with an error. Budget
// exhaustion does not count — it truncates instead.
func (q *qctx) cancelled() bool { return q.ck.Cancelled() }

// cancelErr returns the typed cancellation error once the checkpoint (or a
// final context poll) observed cancellation, and nil otherwise.
func (q *qctx) cancelErr() error {
	if err := q.ck.CancelErr(); err != nil {
		return err
	}
	if q.ctx != nil && q.ck.Cancelled() {
		return ContextError(q.ctx)
	}
	return nil
}

// noteTruncated records that the query's search space was cut short by the
// budget; the flag is sticky and safe to set from refinement workers.
func (q *qctx) noteTruncated() { q.truncated.Store(true) }

// wasTruncated reports whether any part of the query was budget-truncated:
// either a checkpoint budget trip (settled-vertex cap) or an explicit
// anchor-cap note from refinement.
func (q *qctx) wasTruncated() bool { return q.ck.Exhausted() || q.truncated.Load() }
