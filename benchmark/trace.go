package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// The span recorder lives in the harness: it wraps the calls the harness
// makes into a layer (choosing-metrics §4). Spans inside the engine are a
// later change and will hang under these names.

const maxAttrs = 6

type attr struct {
	Key string
	Val float64
}

// span is one timed call. Times are nanoseconds since the recorder's epoch.
// Attrs is a fixed array so recording allocates nothing per span.
type span struct {
	Trace, ID, Parent uint32
	Name              string
	Start, End        int64
	attrs             [maxAttrs]attr
	nattrs            int
}

func (s *span) set(key string, val float64) {
	if s != nil && s.nattrs < maxAttrs {
		s.attrs[s.nattrs] = attr{key, val}
		s.nattrs++
	}
}

// recorder hands out span buffers (one per client goroutine, so recording
// takes no lock) and writes them all out when the run ends.
type recorder struct {
	epoch time.Time
	bufs  []*spanBuf
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// spanBuf is one goroutine's span store. A nil *spanBuf records nothing,
// which is the untraced run: callers need no second code path.
type spanBuf struct {
	rec *recorder
	// nextID counts up from the buffer's own id range, so ids are unique
	// across buffers without an atomic per span.
	nextID uint32
	// chunks never reallocate, so a *span stays valid while its children
	// are appended.
	chunks [][]span
}

const (
	spanChunk = 1024
	idBits    = 24 // spans per buffer before ids would collide; 16M
)

// buf returns a new buffer. Not safe for concurrent use; call it before the
// clients start.
func (r *recorder) buf() *spanBuf {
	if r == nil {
		return nil
	}
	b := &spanBuf{rec: r, nextID: uint32(len(r.bufs)) << idBits}
	r.bufs = append(r.bufs, b)
	return b
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span starting now. parent 0 makes it a root; trace 0 starts
// a new trace whose id is the span's own id.
func (b *spanBuf) begin(name string, trace, parent uint32) *span {
	if b == nil {
		return nil
	}
	return b.beginAt(name, trace, parent, b.rec.now())
}

// beginAt is begin with a given start time: an open-loop request's root span
// starts when the request was due, not when a connection was free.
func (b *spanBuf) beginAt(name string, trace, parent uint32, start int64) *span {
	if b == nil {
		return nil
	}
	b.nextID++
	id := b.nextID
	if trace == 0 {
		trace = id
	}
	if n := len(b.chunks); n == 0 || len(b.chunks[n-1]) == spanChunk {
		b.chunks = append(b.chunks, make([]span, 0, spanChunk))
	}
	c := &b.chunks[len(b.chunks)-1]
	*c = append(*c, span{Trace: trace, ID: id, Parent: parent, Name: name, Start: start})
	return &(*c)[len(*c)-1]
}

func (b *spanBuf) end(s *span) {
	if s != nil {
		s.End = b.rec.now()
	}
}

// at converts a wall-clock reading the caller already took into recorder
// time, so a root span around a timed op costs no clock read of its own.
func (b *spanBuf) at(t time.Time) int64 {
	if b == nil {
		return 0
	}
	return int64(t.Sub(b.rec.epoch))
}

// ids returns the trace and span id to pass to a child's begin.
func (s *span) ids() (trace, id uint32) {
	if s == nil {
		return 0, 0
	}
	return s.Trace, s.ID
}

// each calls fn for every recorded span.
func (r *recorder) each(fn func(*span)) {
	for _, b := range r.bufs {
		for _, c := range b.chunks {
			for i := range c {
				fn(&c[i])
			}
		}
	}
}

// roots counts root spans with the given name.
func (r *recorder) roots(name string) int {
	n := 0
	r.each(func(s *span) {
		if s.Parent == 0 && s.Name == name {
			n++
		}
	})
	return n
}

type spanJSON struct {
	TraceID  uint32             `json:"trace_id"`
	SpanID   uint32             `json:"span_id"`
	ParentID uint32             `json:"parent_id"`
	Name     string             `json:"name"`
	StartNs  int64              `json:"start_ns"`
	EndNs    int64              `json:"end_ns"`
	Attrs    map[string]float64 `json:"attrs,omitempty"`
}

// writeJSONL writes every span as one JSON object per line.
func (r *recorder) writeJSONL(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.each(func(s *span) {
		j := spanJSON{TraceID: s.Trace, SpanID: s.ID, ParentID: s.Parent, Name: s.Name, StartNs: s.Start, EndNs: s.End}
		if s.nattrs > 0 {
			j.Attrs = make(map[string]float64, s.nattrs)
			for _, a := range s.attrs[:s.nattrs] {
				j.Attrs[a.Key] = a.Val
			}
		}
		if eerr := enc.Encode(j); err == nil {
			err = eerr
		}
	})
	if err != nil {
		return err
	}
	return w.Flush()
}
