package gpssn

import (
	"errors"
	"fmt"
	"runtime/debug"

	"gpssn/internal/core"
	"gpssn/internal/wal"
)

// Typed error taxonomy. Every error a DB returns matches exactly one of
// the sentinels below via errors.Is, so callers can branch on failure
// class without string matching; see the error-contract table in
// README.md and docs/ROBUSTNESS.md.

// ErrInvalidInput is matched (errors.Is) by every error the facade
// returns for malformed caller input: NaN/Inf coordinates or interests,
// out-of-range keyword and user ids, non-positive group sizes or radii.
// Invalid input is always rejected before any state changes.
var ErrInvalidInput = errors.New("gpssn: invalid input")

// ErrSnapshotCorrupt is matched (errors.Is) by the error OpenSnapshot
// returns when a snapshot file is damaged beyond recovery: bad magic,
// version skew, or a torn/corrupt dataset section. Damage confined to the
// derived oracle sections is not an error — those are rebuilt from the
// dataset and reported through Health().
var ErrSnapshotCorrupt = errors.New("gpssn: snapshot corrupt")

// ErrWALCorrupt is matched (errors.Is) by the error Open/OpenSnapshot
// return when the write-ahead log at Config.WALPath cannot be replayed:
// mid-log damage (a checksum or LSN-sequence failure before the tail — a
// torn *tail* is repaired silently, never an error), or a log that does
// not pair with the base state being opened (it starts past the state's
// applied LSN, so acknowledged updates would be skipped). The concrete
// error is a *WALError. Refusing is deliberate: every record past the
// damage was acknowledged to a caller, and dropping acknowledged updates
// silently is the one thing a WAL exists to prevent.
var ErrWALCorrupt = errors.New("gpssn: wal corrupt")

// ErrSharedNetwork is matched (errors.Is) by the error of an update
// through a DB that is not the one DB open over its Network (see
// Network), and of a closed DB's query while another DB is open.
var ErrSharedNetwork = errors.New("gpssn: network shared by another DB")

// ErrInternal is matched (errors.Is) by the error a query returns when an
// internal invariant was violated (a bug in this library, never the
// caller's fault). The query fails instead of crashing the process; the
// concrete error is an *InternalError carrying the query context and the
// stack of the original panic.
var ErrInternal = errors.New("gpssn: internal error")

// invalidf builds an ErrInvalidInput-matching error.
func invalidf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrInvalidInput}, args...)...)
}

// engineErr lifts an engine error into the public taxonomy: parameter
// rejections the engine performs itself (bounds that depend on the built
// index, like r within [RMin, RMax]) must match ErrInvalidInput, not fall
// through as untyped caller-fault-looking internals. Every other engine
// error is already typed (core.ErrCancelled, core.ErrDeadlineExceeded).
func engineErr(err error) error {
	if errors.Is(err, core.ErrInvalidParams) {
		return fmt.Errorf("%w: %w", ErrInvalidInput, err)
	}
	return err
}

// WALError is the concrete error behind ErrWALCorrupt: why the log at
// Path cannot bring the base state forward.
type WALError struct {
	// Path is the log file.
	Path string
	// Offset is the byte offset of the damage (0 when the failure is a
	// base-state mismatch rather than file damage).
	Offset int64
	// LSN is the last usable LSN before the failure: the last intact
	// record for mid-log damage, the base state's applied LSN for a
	// mismatched log, the record being replayed for a replay failure.
	LSN uint64
	// Reason describes the failure.
	Reason string
}

func (e *WALError) Error() string {
	return fmt.Sprintf("gpssn: wal %s: at LSN %d (offset %d): %s", e.Path, e.LSN, e.Offset, e.Reason)
}

// Unwrap makes errors.Is(err, ErrWALCorrupt) match.
func (e *WALError) Unwrap() error { return ErrWALCorrupt }

// walErr lifts a wal package error into the public taxonomy: detected
// mid-log corruption becomes a *WALError; I/O errors pass through.
func walErr(err error) error {
	var ce *wal.CorruptError
	if errors.As(err, &ce) {
		return &WALError{Path: ce.Path, Offset: ce.Offset, LSN: ce.LastLSN, Reason: ce.Reason}
	}
	return fmt.Errorf("gpssn: wal: %w", err)
}

// InternalError is the concrete error behind ErrInternal: a recovered
// internal panic converted into a value at the DB boundary, carrying
// enough context to reproduce the failing query.
type InternalError struct {
	// Op is the facade entry point that failed ("Query", "QueryTopK").
	Op string
	// User is the query issuer.
	User int
	// Q is the query being answered when the invariant broke.
	Q Query
	// Panic is the recovered panic value.
	Panic any
	// Stack is the goroutine stack captured where the panic was recovered.
	Stack []byte
}

func (e *InternalError) Error() string {
	return fmt.Sprintf("gpssn: internal error in %s(user=%d, %+v): %v", e.Op, e.User, e.Q, e.Panic)
}

// Unwrap makes errors.Is(err, ErrInternal) match.
func (e *InternalError) Unwrap() error { return ErrInternal }

// guard is the panic-recovery boundary deferred by every query entry
// point: an internal invariant panic — whether raised on the calling
// goroutine or captured from a refinement worker (core.PanicError) —
// becomes a typed *InternalError on the named return instead of crashing
// the caller's process. Input-validation panics never reach here; invalid
// input is rejected with ErrInvalidInput before the engine runs.
func (db *DB) guard(op string, user int, q Query, err *error) {
	r := recover()
	if r == nil {
		return
	}
	ie := &InternalError{Op: op, User: user, Q: q, Panic: r, Stack: debug.Stack()}
	if pe, ok := r.(*core.PanicError); ok {
		ie.Panic = pe.Val
		ie.Stack = pe.Stack
	}
	*err = ie
}
