package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// httpAnswer is the part of a /fann response the checks read; the
// server and the coordinator share it.
type httpAnswer struct {
	P      int32   `json:"p"`
	Dist   float64 `json:"dist"`
	Subset []int32 `json:"subset"`
}

// outcome is one HTTP request's fate.
type outcome struct {
	due, sent, done time.Time
	status          int
	err             error
	answers         []httpAnswer
}

func (o *outcome) ok() bool { return o.err == nil && o.status/100 == 2 }

// latency is the time from the request's due time to its last response
// byte. In a closed loop a request is due when it is sent.
func (o *outcome) latency() time.Duration { return o.done.Sub(o.due) }

// sender is one keep-alive connection to the server.
type sender struct {
	client *http.Client
	url    string
	buf    bytes.Buffer
}

func newSender(base string) *sender {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &sender{client: &http.Client{Transport: tr, Timeout: 30 * time.Second}, url: base + "/fann"}
}

func (s *sender) close() { s.client.CloseIdleConnections() }

// send posts one request body and decodes the answers of a 2xx reply.
func (s *sender) send(ctx context.Context, body []byte, o *outcome) {
	o.sent = time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url, bytes.NewReader(body))
	if err != nil {
		o.err, o.done = err, time.Now()
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		o.err, o.done = err, time.Now()
		return
	}
	s.buf.Reset()
	_, err = s.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	o.done = time.Now()
	o.status = resp.StatusCode
	if err != nil {
		o.err = fmt.Errorf("reading response: %w", err)
		return
	}
	if o.ok() {
		var r struct {
			Answers []httpAnswer `json:"answers"`
		}
		if err := json.Unmarshal(s.buf.Bytes(), &r); err != nil {
			o.err = fmt.Errorf("decoding response: %w", err)
			return
		}
		o.answers = r.Answers
	}
}

// prSetTimerSlack is Linux's PR_SET_TIMERSLACK prctl option.
const prSetTimerSlack = 29

// openLoop sends reqs at a fixed rate from one pacing goroutine over
// conns sender connections, whatever the server's progress. Request i
// is due at start + i/rate; its latency counts from then, so a stall
// also charges the wait it imposes on the requests queued behind it.
func openLoop(ctx context.Context, base string, reqs []request, rate float64, conns int) []outcome {
	out := make([]outcome, len(reqs))
	jobs := make(chan int, len(reqs)) // the pacer never blocks on a busy sender
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		s := newSender(base)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer s.close()
			for i := range jobs {
				s.send(ctx, reqs[i].body, &out[i])
			}
		}()
	}
	// The pacer sleeps in the kernel on its own thread: the runtime's
	// timers wake up to a millisecond late on Linux, which at these rates
	// would be most of a request's latency. A 1 ns timer slack keeps the
	// kernel from deferring the wake-up by its default 50 µs.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0) // best effort: the default slack only adds lateness, which is measured
	start := time.Now().Add(10 * time.Millisecond)
	interval := time.Duration(float64(time.Second) / rate)
	for i := range reqs {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			ts := syscall.NsecToTimespec(int64(d))
			_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep only makes this request late, which is measured
		}
		out[i].due = due
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out
}

// closedLoop keeps conns connections busy, each sending its next request
// as soon as the previous one completes, until d has elapsed or reqs run
// out. It returns the outcomes of the requests sent and the phase's
// wall time.
func closedLoop(ctx context.Context, base string, reqs []request, d time.Duration, conns int) ([]outcome, time.Duration) {
	out := make([]outcome, len(reqs))
	var mu sync.Mutex
	next := 0
	start := time.Now()
	deadline := start.Add(d)
	claim := func() int {
		mu.Lock()
		defer mu.Unlock()
		if next == len(reqs) || time.Now().After(deadline) {
			return -1
		}
		next++
		return next - 1
	}
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		s := newSender(base)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer s.close()
			for i := claim(); i >= 0; i = claim() {
				out[i].due = time.Now()
				s.send(ctx, reqs[i].body, &out[i])
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	return out[:next], elapsed
}

// sequential sends reqs one at a time over one connection.
func sequential(ctx context.Context, base string, reqs []request) []outcome {
	out := make([]outcome, len(reqs))
	s := newSender(base)
	defer s.close()
	for i := range reqs {
		out[i].due = time.Now()
		s.send(ctx, reqs[i].body, &out[i])
	}
	return out
}
