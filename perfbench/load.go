package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// reply is the part of a /v1/request response the benchmark checks.
type reply struct {
	Op           string `json:"op"`
	ImageID      uint64 `json:"image_id"`
	ImageSize    int64  `json:"image_size"`
	RequestBytes int64  `json:"request_bytes"`
	BytesWritten int64  `json:"bytes_written"`
	Packages     int    `json:"packages"`
	Agent        string `json:"agent"`
}

// sample is one request's outcome.
type sample struct {
	idx    int           // position in the stream
	at     time.Duration // due (fixed rate) or completion (saturation) time after the phase start
	lat    time.Duration
	status int
	err    error
	rep    reply
}

func (s sample) ok() bool { return s.err == nil && s.status == http.StatusOK }

// newClient returns a client holding at most conns connections to the
// host it talks to.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 5 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// post sends one request body and decodes the reply.
func post(hc *http.Client, url string, body []byte) (reply, int, error) {
	resp, err := hc.Post(url+"/v1/request", "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{}, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, resp.StatusCode, err
	}
	var r reply
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, &r); err != nil {
			return reply{}, resp.StatusCode, fmt.Errorf("decoding reply: %w", err)
		}
	}
	return r, resp.StatusCode, nil
}

func send(hc *http.Client, url string, st *stream, i int, from time.Time) sample {
	rep, status, err := post(hc, url, st.body(i))
	return sample{idx: i, lat: time.Since(from), status: status, err: err, rep: rep}
}

// serial sends requests [from, to) one at a time, in order.
func serial(hc *http.Client, url string, st *stream, from, to int) []sample {
	out := make([]sample, 0, to-from)
	for i := from; i < to; i++ {
		out = append(out, send(hc, url, st, i, time.Now()))
	}
	return out
}

// fixedRate is an open-loop slice: request from+k is due at
// arrivals[k] after the slice starts, whatever the server is doing.
// conns workers send; each request is timed from its due time, so a
// stall counts against every request queued behind it. lag is how late
// the generator handed each request over.
func fixedRate(hc *http.Client, url string, st *stream, from int, arrivals []time.Duration, conns int) (samples []sample, lag []time.Duration, elapsed time.Duration) {
	type job struct {
		i   int
		due time.Time
	}
	// Sized to the whole phase: the generator never blocks on a
	// backlog, it only falls behind schedule if it is itself late.
	jobs := make(chan job, len(arrivals))
	results := make([][]sample, conns)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := range jobs {
				s := send(hc, url, st, j.i, j.due)
				s.at = j.due.Sub(start)
				results[c] = append(results[c], s)
			}
		}(c)
	}
	lag = make([]time.Duration, 0, len(arrivals))
	for k, off := range arrivals {
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lag = append(lag, time.Since(due))
		jobs <- job{i: from + k, due: due}
	}
	close(jobs)
	wg.Wait()
	elapsed = time.Since(start)
	for _, r := range results {
		samples = append(samples, r...)
	}
	return samples, lag, elapsed
}

// saturate is a closed-loop slice: conns clients each send their next
// request as soon as the previous one completes, for dur. It returns
// the stream position after the last request sent.
func saturate(hc *http.Client, url string, st *stream, from, conns int, dur time.Duration) (samples []sample, elapsed time.Duration, next int) {
	var cursor atomic.Int64
	cursor.Store(int64(from))
	results := make([][]sample, conns)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(cursor.Add(1) - 1)
				s := send(hc, url, st, i, time.Now())
				s.at = time.Since(start)
				results[c] = append(results[c], s)
			}
		}(c)
	}
	wg.Wait()
	elapsed = time.Since(start)
	for _, r := range results {
		samples = append(samples, r...)
	}
	return samples, elapsed, int(cursor.Load())
}

// getJSON decodes a GET endpoint's JSON body.
func getJSON(hc *http.Client, url string, v any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func getBody(hc *http.Client, url string) ([]byte, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// postEmpty POSTs an empty body and requires a 200.
func postEmpty(hc *http.Client, url string) error {
	resp, err := hc.Post(url, "application/json", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: status %d", url, resp.StatusCode)
	}
	return nil
}
