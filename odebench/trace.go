package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into the system: a whole
// transaction (Parent 0) or a public call inside one. Spans of one
// transaction share Tx.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Tx     uint64 `json:"tx"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run's time origin
	End    int64  `json:"end_ns"`
}

// tracer records the spans of one caller. Each caller owns its tracer,
// so recording takes no lock; ids come from a counter shared by the run.
type tracer struct {
	origin time.Time
	ids    *atomic.Uint64
	spans  []span
	open   []int // indexes into spans of the calls in progress
	tx     uint64
}

func newTracer(origin time.Time, ids *atomic.Uint64) *tracer {
	return &tracer{origin: origin, ids: ids}
}

// start opens a span under the innermost open one. A span opened with
// nothing open starts a new transaction.
func (t *tracer) start(name string) {
	s := span{ID: t.ids.Add(1), Name: name, Start: int64(time.Since(t.origin))}
	if n := len(t.open); n > 0 {
		s.Parent = t.spans[t.open[n-1]].ID
	} else {
		t.tx = s.ID
	}
	s.Tx = t.tx
	t.open = append(t.open, len(t.spans))
	t.spans = append(t.spans, s)
}

// end closes the innermost open span.
func (t *tracer) end() {
	n := len(t.open) - 1
	t.spans[t.open[n]].End = int64(time.Since(t.origin))
	t.open = t.open[:n]
}

// writeSpans writes spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
