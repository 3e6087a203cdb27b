package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"delprop/internal/server"
)

// daemon is delpropd as cmd/delpropd runs it with default flags — the
// handler, its time-series sampler and session janitor — serving a real
// 127.0.0.1 listener inside this process.
type daemon struct {
	hs       *http.Server
	base     string
	client   *http.Client
	cancel   context.CancelFunc
	wg       sync.WaitGroup
	sessions []string      // warm session id per instance
	released chan struct{} // closed once the handler has been garbage collected
}

// startDaemon starts a daemon with a client of at most conns connections
// and waits until /healthz answers.
func startDaemon(conns int) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := server.NewHandler(server.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	ctx, cancel := context.WithCancel(context.Background())
	d := &daemon{
		hs: &http.Server{
			Handler:           srv,
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       30 * time.Second,
			WriteTimeout:      server.DefaultMaxSolveTimeout + 30*time.Second,
			IdleTimeout:       2 * time.Minute,
		},
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
		cancel:   cancel,
		released: make(chan struct{}),
	}
	released := d.released
	runtime.SetFinalizer(srv, func(*server.Server) { close(released) })
	d.wg.Add(3)
	go func() {
		defer d.wg.Done()
		_ = d.hs.Serve(ln) // returns http.ErrServerClosed after close
	}()
	go func() { defer d.wg.Done(); srv.RunSampler(ctx) }()
	go func() { defer d.wg.Done(); srv.RunSessionJanitor(ctx) }()
	resp, err := d.client.Get(d.base + "/healthz")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: status %d", resp.StatusCode)
		}
	}
	if err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// register posts each instance to POST /sessions and keeps the ids.
func (d *daemon) register(insts []*instance) error {
	d.sessions = make([]string, len(insts))
	for i, in := range insts {
		body, err := json.Marshal(server.SessionRequest{Database: in.db, Queries: in.queries})
		if err != nil {
			return err
		}
		status, out, err := d.post("/sessions", body)
		if err != nil {
			return fmt.Errorf("register %s: %w", in.name, err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("register %s: status %d: %s", in.name, status, out)
		}
		var sr server.SessionResponse
		if err := json.Unmarshal(out, &sr); err != nil {
			return fmt.Errorf("register %s: %w", in.name, err)
		}
		d.sessions[i] = sr.SessionID
	}
	return nil
}

func (d *daemon) post(path string, body []byte) (int, []byte, error) {
	resp, err := d.client.Post(d.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// close stops the daemon and waits for its goroutines.
func (d *daemon) close() {
	d.cancel()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if d.hs.Shutdown(ctx) != nil {
		_ = d.hs.Close()
	}
	d.wg.Wait()
	d.client.CloseIdleConnections()
}

// awaitRelease collects garbage until the handler whose finalizer closes
// released is gone — connection goroutines may hold it for a moment after
// close returns — or five seconds have passed.
func awaitRelease(released <-chan struct{}) {
	for i := 0; i < 100; i++ {
		runtime.GC()
		select {
		case <-released:
			return
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// result is one request as the load generator saw it.
type result struct {
	entry    int
	intended time.Time // when the open loop meant to send it; zero in the closed loop
	start    time.Time
	end      time.Time
	status   int
	body     []byte
	err      error
}

// latency is measured from the intended send time when there is one, so
// a stalled server cannot hide the queue that builds behind it.
func (r result) latency() time.Duration {
	if r.intended.IsZero() {
		return r.end.Sub(r.start)
	}
	return r.end.Sub(r.intended)
}

// sendFunc sends stream entry i and reports what happened.
type sendFunc func(i int) result

// closedLoop runs conns clients that each send their next request as soon
// as the previous answer arrives, until d has passed. take hands out
// stream entries.
func closedLoop(send sendFunc, take func() int, conns int, d time.Duration) []result {
	deadline := time.Now().Add(d)
	var mu sync.Mutex
	var out []result
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []result
			for time.Now().Before(deadline) {
				local = append(local, send(take()))
			}
			mu.Lock()
			out = append(out, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out
}

// openLoop sends rate requests per second on a fixed schedule for d,
// through at most conns connections. A request whose slot comes while
// every connection is busy is sent late, and its latency still counts
// from the slot.
func openLoop(send sendFunc, take func() int, conns int, rate float64, d time.Duration) []result {
	n := int(rate * d.Seconds())
	start := time.Now()
	var next atomic.Int64
	out := make([]result, n)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= n {
					return
				}
				intended := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
				time.Sleep(time.Until(intended))
				res := send(take())
				res.intended = intended
				out[k] = res
			}
		}()
	}
	wg.Wait()
	return out
}

// httpSender sends stream entries to a daemon and keeps each answer in
// keep.
func httpSender(d *daemon, s *stream, keep *arena, workers int) sendFunc {
	return func(i int) result {
		res := result{entry: i}
		path, body, err := request(s.route, s.insts, s.at(i), d.sessions, workers)
		res.start = time.Now()
		if err == nil {
			res.status, res.body, err = d.post(path, body)
		}
		res.end = time.Now()
		if err == nil {
			res.body, err = keep.add(res.body)
		}
		res.err = err
		return res
	}
}

// arena is an append-only byte store outside the Go heap for the answers
// kept until the run ends. Kept on the heap they would grow the live heap
// as the run goes on, and the collector, which paces itself by the live
// heap, would run less and less often: throughput would drift upward
// within a run for a reason the daemon alone never sees.
type arena struct {
	mu  sync.Mutex
	buf []byte
	n   int
}

// arenaBytes is address space; the kernel commits pages as they are
// written.
const arenaBytes = 1 << 30

func newArena() (*arena, error) {
	buf, err := syscall.Mmap(-1, 0, arenaBytes, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_NORESERVE)
	if err != nil {
		return nil, fmt.Errorf("arena: %w", err)
	}
	return &arena{buf: buf}, nil
}

// add copies b into the arena.
func (a *arena) add(b []byte) ([]byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.n+len(b) > len(a.buf) {
		return nil, errors.New("arena: full")
	}
	out := a.buf[a.n : a.n+len(b) : a.n+len(b)]
	copy(out, b)
	a.n += len(b)
	return out, nil
}

// free unmaps the arena; nothing it handed out may be used afterwards.
func (a *arena) free() error { return syscall.Munmap(a.buf) }

// percentile returns the nearest-rank p-th percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	// The epsilon keeps p/100·n from rounding up past an exact rank.
	i := int(math.Ceil(p/100*float64(len(sorted))-1e-9)) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// tailLadder lists the percentiles a latency tail is reported at.
var tailLadder = []float64{99.99, 99.9, 99, 95, 90, 50}

// tail returns the highest percentile of tailLadder with at least ten
// samples beyond it, its value and the sample count; ok is false when
// not even the median qualifies.
func tail(values []float64) (p, v float64, n int, ok bool) {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	n = len(sorted)
	for _, p := range tailLadder {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			return p, percentile(sorted, p), n, true
		}
	}
	return 0, 0, n, false
}

func median(values []float64) float64 {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	return percentile(sorted, 50)
}

func mean(values []float64) float64 {
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}
