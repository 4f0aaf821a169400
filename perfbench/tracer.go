package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/persist"
)

// span is one timed call at a layer boundary. Spans of one request
// share Req; Parent is the ID of the span that caused it (-1 at a
// root).
type span struct {
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Op     string `json:"op,omitempty"`
}

// tracer keeps spans in memory. The traced passes are serial, so the
// open spans form one stack: a span's parent is the innermost span
// still open when it begins, whichever goroutine begins it. A nil
// tracer records nothing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	req   int
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) setReq(i int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.req = i
	t.mu.Unlock()
}

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Req: t.req, ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) { t.endOp(id, "") }

func (t *tracer) endOp(id int, op string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = int64(time.Since(t.t0))
	t.spans[id].Op = op
	for i := len(t.open) - 1; i >= 0; i-- {
		if t.open[i] == id {
			t.open = append(t.open[:i], t.open[i+1:]...)
			break
		}
	}
}

// layerTimes aggregates a pass's spans by name.
type layerTimes struct {
	requests int
	dur      map[string]float64 // summed duration, µs
	self     map[string]float64 // summed self time, µs
	opSelf   map[string]float64 // core.request self time by op, µs
	opCount  map[string]int
}

// aggregate computes each span's self time: its duration minus the
// part its children cover.
func (t *tracer) aggregate(requests int) layerTimes {
	lt := layerTimes{requests: requests, dur: map[string]float64{}, self: map[string]float64{},
		opSelf: map[string]float64{}, opCount: map[string]int{}}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		d := float64(s.End-s.Start) / 1e3
		self := float64(s.End-s.Start-child[i]) / 1e3
		lt.dur[s.Name] += d
		lt.self[s.Name] += self
		if s.Op != "" {
			lt.opSelf[s.Op] += self
			lt.opCount[s.Op]++
		}
	}
	return lt
}

// perReq is a layer's mean per request, µs.
func (lt layerTimes) perReq(m map[string]float64, name string) float64 {
	return ratio(m[name], float64(lt.requests))
}

// writeSpans appends the spans of one pass as JSON lines.
func (t *tracer) writeSpans(w io.Writer, pass string) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(struct {
			Pass string `json:"pass"`
			span
		}{pass, s}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// tracedHandler records a span around every /v1/request the handler
// serves.
func tracedHandler(t *tracer, name string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/request" {
			h.ServeHTTP(w, r)
			return
		}
		id := t.begin(name)
		h.ServeHTTP(w, r)
		t.end(id)
	})
}

// tracedTransport records a span from sending a /v1/request until its
// response body is closed: the master's forward round trip.
type tracedTransport struct {
	t    *tracer
	base http.RoundTripper
}

func (tt *tracedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Path != "/v1/request" {
		return tt.base.RoundTrip(r)
	}
	id := tt.t.begin("fleet.forward")
	resp, err := tt.base.RoundTrip(r)
	if err != nil {
		tt.t.end(id)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() { tt.t.end(id) }}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

// countingFS wraps the real filesystem to count what the store writes
// and to time its fsyncs.
type countingFS struct {
	persist.OSFS
	t *tracer

	mu        sync.Mutex
	writes    int64
	walBytes  int64
	fsyncs    int64
	fsyncTime time.Duration
}

func (c *countingFS) wrap(f persist.File, err error) (persist.File, error) {
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c, wal: strings.HasPrefix(filepath.Base(f.Name()), "wal-")}, nil
}

func (c *countingFS) OpenFile(name string, flag int, perm os.FileMode) (persist.File, error) {
	return c.wrap(c.OSFS.OpenFile(name, flag, perm))
}

func (c *countingFS) CreateTemp(dir, pattern string) (persist.File, error) {
	return c.wrap(c.OSFS.CreateTemp(dir, pattern))
}

type countingFile struct {
	persist.File
	fs  *countingFS
	wal bool
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.mu.Lock()
	f.fs.writes++
	if f.wal {
		f.fs.walBytes += int64(n)
	}
	f.fs.mu.Unlock()
	return n, err
}

func (f *countingFile) Sync() error {
	id := f.fs.t.begin("persist.fsync")
	start := time.Now()
	err := f.File.Sync()
	d := time.Since(start)
	f.fs.t.end(id)
	f.fs.mu.Lock()
	f.fs.fsyncs++
	f.fs.fsyncTime += d
	f.fs.mu.Unlock()
	return err
}
