package main

import (
	"sync"
	"time"
)

// span is one traced interval. Request spans are roots (Parent 0) carrying
// the client and request number; probe spans hang under a probe.<layer>
// parent. Times are nanoseconds since the recorder was created.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Client   int    `json:"client"`
	Req      int64  `json:"req"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, which is the untraced run.
type recorder struct {
	workload string
	t0       time.Time
	mu       sync.Mutex
	spans    []span
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, t0: time.Now()}
}

// clientTrace is one client's private span buffer, so concurrent clients
// record without sharing a lock; flush hands the spans to the recorder.
type clientTrace struct {
	rec    *recorder
	client int
	spans  []span
}

func (r *recorder) client(c, expect int) *clientTrace {
	if r == nil {
		return nil
	}
	return &clientTrace{rec: r, client: c, spans: make([]span, 0, expect)}
}

func (t *clientTrace) request(name string, req int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{Name: name, Client: t.client, Req: req,
		Start: int64(start.Sub(t.rec.t0)), End: int64(end.Sub(t.rec.t0))})
}

func (t *clientTrace) flush() {
	if t == nil {
		return
	}
	r := t.rec
	r.mu.Lock()
	for _, s := range t.spans {
		s.ID = len(r.spans) + 1
		s.Workload = r.workload
		r.spans = append(r.spans, s)
	}
	r.mu.Unlock()
	t.spans = t.spans[:0]
}

// begin opens a span under parent and returns its id; end closes it.
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name,
		Workload: r.workload, Client: -1, Start: int64(time.Since(r.t0))})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	r.spans[id-1].End = int64(time.Since(r.t0))
	r.mu.Unlock()
}

// traceFile is what -spans writes: every span of the traced runs and the
// per-layer table they produced.
type traceFile struct {
	Env   environment                  `json:"env"`
	Layer map[string]map[string]sample `json:"per_layer"`
	Spans []span                       `json:"spans"`
}
