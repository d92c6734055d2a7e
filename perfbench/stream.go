package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nodesentry"
	"nodesentry/internal/core"
	"nodesentry/internal/daemon"
	"nodesentry/internal/dataset"
	"nodesentry/internal/eval"
	"nodesentry/internal/fleetview"
	"nodesentry/internal/ingest"
	"nodesentry/internal/obs"
	"nodesentry/internal/runtime"
)

// openLoopRate is the open-loop phase's fixed push rate in samples per
// second: about half the closed-loop throughput of the code the benchmark
// was defined on (8,500–11,000 samples/s on a 2-CPU machine). It is a
// constant on purpose: deriving it from the run would let a slower build
// lower its own load.
const openLoopRate = 4000

// alertKey is the part of an alert the correctness check compares.
type alertKey struct {
	Node     string
	Time     int64
	Job      int64
	Priority runtime.Priority
}

func sortKeys(keys []alertKey) {
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Time != keys[j].Time {
			return keys[i].Time < keys[j].Time
		}
		return keys[i].Node < keys[j].Node
	})
}

// streamEnv is the stream workload's set-up: the fleet, the detector at
// Quick scale, the pre-encoded push bodies and the reference outcome.
type streamEnv struct {
	ds     *dataset.Dataset
	det    *core.Detector
	in     *replayInput
	ref    []alertKey
	scored int64
}

// setupStream builds one stream environment on ds with the trained
// detector det.
func setupStream(ds *dataset.Dataset, det *core.Detector) (*streamEnv, error) {
	env := &streamEnv{ds: staggered(ds, det.WindowLen()), det: det}
	var err error
	if env.in, err = encodeReplay(env.ds, det.MatchPeriodSec()); err != nil {
		return nil, fmt.Errorf("stream: encode: %w", err)
	}
	if env.ref, env.scored, err = referenceReplay(env.ds, det); err != nil {
		return nil, err
	}
	return env, nil
}

// referenceReplay runs runtime.Replay over the test split on a fresh
// monitor: the alerts and scored-sample count the streamed run must match.
func referenceReplay(ds *dataset.Dataset, det *core.Detector) ([]alertKey, int64, error) {
	mon, err := runtime.NewMonitor(det, runtime.Config{Step: ds.Step, ScoringWorkers: 3})
	if err != nil {
		return nil, 0, fmt.Errorf("stream: reference monitor: %w", err)
	}
	var scored atomic.Int64
	mon.Tap(runtime.Hooks{OnScores: func(_ string, _ int, _ int64, s []float64) { scored.Add(int64(len(s))) }})
	var keys []alertKey
	for _, a := range runtime.Replay(ds, mon, ds.SplitTime(), ds.Horizon) {
		keys = append(keys, alertKey{a.Node, a.Time, a.Job, a.Priority})
	}
	if mon.Dropped() != 0 {
		return nil, 0, fmt.Errorf("stream: reference replay dropped %d alerts", mon.Dropped())
	}
	sortKeys(keys)
	return keys, scored.Load(), nil
}

// pipeline is what a pass needs from the daemon under test: sentryd
// (daemon.New's wiring) or tracedPipeline.
type pipeline interface {
	Addr() string
	Monitor() *runtime.Monitor
	Router() *ingest.ShardRouter
	Close(ctx context.Context) error
	// WebhookFailures counts failed alert deliveries (read after Close).
	WebhookFailures() int64
}

// webhookReceiver is the loopback alert receiver every pass delivers to.
type webhookReceiver struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func startWebhook() (*webhookReceiver, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("webhook listen: %w", err)
	}
	w := &webhookReceiver{url: "http://" + ln.Addr().String() + "/alert", done: make(chan struct{})}
	w.srv = &http.Server{
		ReadHeaderTimeout: 5 * time.Second,
		Handler: http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			_, _ = io.Copy(io.Discard, r.Body) // the payload is not inspected
			rw.WriteHeader(http.StatusOK)
		}),
	}
	go func() {
		defer close(w.done)
		_ = w.srv.Serve(ln) // returns ErrServerClosed after close
	}()
	return w, nil
}

func (w *webhookReceiver) close() {
	_ = w.srv.Close() // loopback receiver; nothing left to flush
	<-w.done
}

// daemonConfig is sentryd's standalone wiring with its defaults: 4 shards,
// queue 256, Block, 3 scoring workers, no batching, fleet view and metrics
// registry on, the alert webhook on loopback, logs discarded.
func daemonConfig(env *streamEnv, webhookURL string, onAlert func(runtime.Alert)) daemon.Config {
	reg := obs.NewRegistry()
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	return daemon.Config{
		Detector:       env.det,
		Step:           env.ds.Step,
		Layouts:        env.in.layouts,
		ScoringWorkers: 3,
		BatchWindows:   0,
		Shards:         4,
		QueueSize:      256,
		Policy:         ingest.Block,
		WebhookURL:     webhookURL,
		WebhookRetries: 2,
		WebhookBackoff: ingest.Backoff{Base: 200 * time.Millisecond},
		FleetView:      &fleetview.Config{VicinityThreshold: 4, Metrics: reg, Logger: logger},
		Metrics:        reg,
		Logger:         logger,
		OnAlert:        onAlert,
	}
}

// passResult is what one replay of the test split through a fresh
// pipeline produced.
type passResult struct {
	wall       time.Duration // first push until the pipeline drained
	pushed     int           // samples pushed
	posts      int
	badPosts   int // posts that did not get a 202
	badSamples int // samples in those posts
	drops      int64
	alertDrops int64
	webhookErr int64
	shardLoads []int64
	alerts     []alertKey
	scored     int64
	windows    int64
	matches    int64
	nonFinite  int64
	bytes      int64
	// Open loop only: per-window intake-to-score latency (ms), generator
	// lateness (ms) and push round trips (ms).
	latMs  []float64
	lateMs []float64
	pushMs []float64
	// scoredWins lists every scored window of a traced pass, for the
	// per-layer replay.
	scoredWins []scoredWindow
	// streamed holds an open-loop pass's per-sample scores by node and
	// time.
	streamed map[string]map[int64]float64
}

type scoredWindow struct {
	node    string
	cluster int
	start   int64
}

// pass replays the pre-encoded bodies through p, from one generator
// goroutine over one keep-alive connection. interval 0 pushes back to
// back (closed loop); otherwise body i is due at start + i*interval (open
// loop) and each window's latency runs from the due time of the newest
// sample its score depends on. tr, when non-nil, records push, lateness
// and scoring spans.
func pass(env *streamEnv, build func(onAlert func(runtime.Alert)) (pipeline, error), interval time.Duration, tr *tracer) (*passResult, error) {
	res := &passResult{}
	var mu sync.Mutex // guards res fields written by hooks and the alert consumer
	if interval > 0 {
		res.streamed = make(map[string]map[int64]float64, len(env.in.nodes))
		for _, node := range env.in.nodes {
			res.streamed[node] = map[int64]float64{}
		}
	}
	p, err := build(func(a runtime.Alert) {
		mu.Lock()
		res.alerts = append(res.alerts, alertKey{a.Node, a.Time, a.Job, a.Priority})
		mu.Unlock()
	})
	if err != nil {
		return nil, err
	}
	win := env.det.WindowLen()
	var start time.Time
	var started atomic.Bool
	p.Monitor().Tap(runtime.Hooks{
		OnMatch: func(string, int, float64, bool) {
			now := time.Now()
			mu.Lock()
			res.matches++
			mu.Unlock()
			tr.add(-1, "", "runtime.match", now, now, 1)
		},
		OnScores: func(node string, cluster int, winStart int64, scores []float64) {
			now := time.Now()
			mu.Lock()
			defer mu.Unlock()
			res.windows++
			res.scored += int64(len(scores))
			if !finite(scores) {
				res.nonFinite++
			}
			if tr != nil {
				res.scoredWins = append(res.scoredWins, scoredWindow{node, cluster, winStart})
			}
			if interval <= 0 || !started.Load() {
				return
			}
			for i, s := range scores {
				res.streamed[node][winStart+int64(i)*env.in.step] = s
			}
			tick := env.in.tickOf(newestSample(winStart, win, env.in.step, env.in.matchTs[node]))
			due := start.Add(time.Duration(tick) * interval)
			res.latMs = append(res.latMs, float64(now.Sub(due))/float64(time.Millisecond))
			tr.add(int64(tick), "ingest.push", "runtime.score", due, now, int64(len(scores)))
		},
	})

	client := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
	defer client.CloseIdleConnections()
	url := "http://" + p.Addr() + "/push"
	send := func(i int) error {
		body := env.in.bodies[i]
		t0 := time.Now()
		req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/x-ndjson")
		resp, err := client.Do(req)
		if err != nil {
			return fmt.Errorf("push %d: %w", i, err)
		}
		_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
		_ = resp.Body.Close()                 // read-only body
		t1 := time.Now()
		n := env.in.counts[i]
		res.posts++
		res.pushed += n
		res.bytes += int64(len(body))
		if resp.StatusCode != http.StatusAccepted {
			res.badPosts++
			res.badSamples += n
		}
		if interval > 0 {
			res.pushMs = append(res.pushMs, float64(t1.Sub(t0))/float64(time.Millisecond))
		}
		tr.add(int64(i), "", "ingest.push", t0, t1, int64(n))
		return nil
	}

	var sendErr error
	if interval <= 0 {
		start = time.Now()
		started.Store(true)
		for i := range env.in.bodies {
			if sendErr = send(i); sendErr != nil {
				break
			}
		}
	} else {
		var late []time.Duration
		late, sendErr = pace(len(env.in.bodies), interval, realClock{}, func(t0 time.Time) {
			start = t0
			started.Store(true)
		}, send)
		for i, l := range late {
			res.lateMs = append(res.lateMs, float64(l)/float64(time.Millisecond))
			due := start.Add(time.Duration(i) * interval)
			tr.add(int64(i), "", "gen.late", due, due.Add(l), 1)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	closeErr := p.Close(ctx)
	res.wall = time.Since(start)
	kind := "stream.closed_pass"
	if interval > 0 {
		kind = "stream.open_pass"
	}
	tr.add(-1, "", kind, start, start.Add(res.wall), int64(res.pushed))
	if sendErr != nil {
		return nil, sendErr
	}
	if closeErr != nil {
		return nil, fmt.Errorf("close pipeline: %w", closeErr)
	}
	res.drops = p.Router().Dropped()
	res.shardLoads = p.Router().ShardLoads()
	res.alertDrops = p.Monitor().Dropped()
	res.webhookErr = p.WebhookFailures()
	sortKeys(res.alerts)
	return res, nil
}

// check compares a pass with the reference replay and the run's own
// invariants; it returns one line per mismatch.
func (r *passResult) check(env *streamEnv) []string {
	var bad []string
	if r.pushed != env.in.samples {
		bad = append(bad, fmt.Sprintf("pushed %d samples, want %d", r.pushed, env.in.samples))
	}
	if r.badPosts != 0 {
		bad = append(bad, fmt.Sprintf("%d pushes did not get a 202", r.badPosts))
	}
	if r.drops != 0 || r.alertDrops != 0 {
		bad = append(bad, fmt.Sprintf("router dropped %d events, monitor dropped %d alerts", r.drops, r.alertDrops))
	}
	if r.nonFinite != 0 {
		bad = append(bad, fmt.Sprintf("%d windows had non-finite scores", r.nonFinite))
	}
	if r.scored != env.scored {
		bad = append(bad, fmt.Sprintf("scored %d samples, reference %d", r.scored, env.scored))
	}
	if len(r.alerts) != len(env.ref) {
		bad = append(bad, fmt.Sprintf("%d alerts, reference %d", len(r.alerts), len(env.ref)))
	} else {
		for i := range r.alerts {
			if r.alerts[i] != env.ref[i] {
				bad = append(bad, fmt.Sprintf("alert %d is %+v, reference %+v", i, r.alerts[i], env.ref[i]))
				break
			}
		}
	}
	if r.webhookErr != 0 {
		bad = append(bad, fmt.Sprintf("%d webhook deliveries failed", r.webhookErr))
	}
	return bad
}

// addPass counts a pass's operations and records its failed checks.
func (r *report) addPass(phase string, env *streamEnv, res *passResult) {
	r.res.Attempted += int64(res.pushed)
	r.res.Failed += res.failures()
	for _, b := range res.check(env) {
		r.fail("%s: %s", phase, b)
	}
}

// failures counts the pass's failed operations: samples in pushes that did
// not get a 202, router drops and failed webhook deliveries.
func (r *passResult) failures() int64 {
	return int64(r.badSamples) + r.drops + r.webhookErr
}

// streamResults evaluates an open-loop pass's streamed per-sample scores
// under the paper's protocol: each job segment's scores are thresholded
// with the detector's k-sigma rule, as Detect does, and evaluated with
// EvaluateNodeOutput. Samples no window covered score 0.
func streamResults(env *streamEnv, r *passResult) []eval.NodeResult {
	test := env.ds.TestFrames()
	var results []eval.NodeResult
	for _, node := range env.in.nodes {
		frame := test[node]
		scores := make([]float64, frame.Len())
		for t := range scores {
			scores[t] = r.streamed[node][frame.TimeAt(t)]
		}
		preds := make([]bool, 0, len(scores))
		segs := env.in.matchTs[node]
		for i, s := range segs {
			hi := len(scores)
			if i+1 < len(segs) {
				hi = frame.IndexOf(segs[i+1].firstTs)
			}
			preds = append(preds, env.det.Threshold(scores[frame.IndexOf(s.firstTs):hi], env.in.step)...)
		}
		spans := env.ds.SpansForNode(node, env.ds.SplitTime(), env.ds.Horizon)
		results = append(results, nodesentry.EvaluateNodeOutput(env.ds, frame, spans, scores, preds))
	}
	return results
}

// daemonBuilder returns a constructor of sentryd's own wiring, daemon.New.
func daemonBuilder(env *streamEnv, hook *webhookReceiver) func(func(runtime.Alert)) (pipeline, error) {
	return func(onAlert func(runtime.Alert)) (pipeline, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("intake listen: %w", err)
		}
		cfg := daemonConfig(env, hook.url, onAlert)
		cfg.Listener = ln
		d, err := daemon.New(cfg)
		if err != nil {
			_ = ln.Close() // New failed before taking ownership
			return nil, fmt.Errorf("daemon: %w", err)
		}
		return sentryd{Daemon: d, reg: cfg.Metrics}, nil
	}
}

// sentryd is daemon.New's pipeline plus its metrics registry.
type sentryd struct {
	*daemon.Daemon
	reg *obs.Registry
}

func (s sentryd) WebhookFailures() int64 {
	return s.reg.Counter("nodesentry_webhook_failures_total").Value()
}
