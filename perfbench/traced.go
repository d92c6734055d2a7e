package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	goruntime "runtime"
	"sync"
	"time"

	"nodesentry/internal/fleetview"
	"nodesentry/internal/ingest"
	"nodesentry/internal/mts"
	"nodesentry/internal/obs"
	"nodesentry/internal/runtime"
)

// gcReading is the Go runtime's allocation and collection totals at one
// run boundary.
type gcReading struct {
	bytes, allocs, pauseNs uint64
	cycles                 uint32
}

func readGC() gcReading {
	var m goruntime.MemStats
	goruntime.ReadMemStats(&m)
	return gcReading{bytes: m.TotalAlloc, allocs: m.Mallocs, pauseNs: m.PauseTotalNs, cycles: m.NumGC}
}

// report records the gc.* metrics between g and end, per sample processed.
func (g gcReading) report(rep *report, end gcReading, samples int64) {
	n := float64(samples)
	rep.set("gc.bytes_per_sample", float64(end.bytes-g.bytes)/n, "B", int(samples))
	rep.set("gc.allocs_per_sample", float64(end.allocs-g.allocs)/n, "count", int(samples))
	rep.set("gc.cycles", float64(end.cycles-g.cycles), "count", 0)
	rep.set("gc.pause_ms", float64(end.pauseNs-g.pauseNs)/1e6, "ms", 0)
}

// timedSink times every call across one ingest.Sink boundary. The span
// joins the trace of the scrape tick the sample belongs to.
type timedSink struct {
	next ingest.Sink
	tr   *tracer
	in   *replayInput
	name string
}

func (s *timedSink) RegisterNode(node string, metrics []string) { s.next.RegisterNode(node, metrics) }

func (s *timedSink) ObserveJob(node string, job int64, start int64) {
	t0 := time.Now()
	s.next.ObserveJob(node, job, start)
	s.tr.add(-1, "", s.name+".job", t0, time.Now(), 1)
}

func (s *timedSink) Ingest(node string, ts int64, values []float64) {
	t0 := time.Now()
	s.next.Ingest(node, ts, values)
	s.tr.add(int64(s.in.tickOf(ts)), "ingest.push", s.name, t0, time.Now(), 1)
}

// tracedPipeline is daemon.New's standalone wiring rebuilt from the same
// public constructors with the same configuration, plus timing wrappers
// on the decoder→router and router→monitor Sink boundaries.
type tracedPipeline struct {
	mon       *runtime.Monitor
	router    *ingest.ShardRouter
	srv       *http.Server
	addr      string
	serveDone chan struct{}
	fv        *fleetview.Aggregator
	fvCancel  context.CancelFunc
	fvDone    chan struct{}
	consumer  sync.WaitGroup
	reg       *obs.Registry
}

func tracedBuilder(env *streamEnv, hook *webhookReceiver, tr *tracer) func(func(runtime.Alert)) (pipeline, error) {
	return func(onAlert func(runtime.Alert)) (pipeline, error) {
		cfg := daemonConfig(env, hook.url, onAlert)
		mon, err := runtime.NewMonitor(cfg.Detector, runtime.Config{
			Step:           cfg.Step,
			ScoringWorkers: cfg.ScoringWorkers,
			AlertBuffer:    cfg.AlertBuffer,
			BatchWindows:   cfg.BatchWindows,
			Metrics:        cfg.Metrics,
			Logger:         cfg.Logger,
		})
		if err != nil {
			return nil, err
		}
		p := &tracedPipeline{mon: mon, reg: cfg.Metrics, serveDone: make(chan struct{}), fvDone: make(chan struct{})}
		sink := &runtime.WebhookSink{
			URL:        cfg.WebhookURL,
			MaxRetries: cfg.WebhookRetries,
			Backoff:    cfg.WebhookBackoff,
			Client:     cfg.WebhookClient,
			Metrics:    cfg.Metrics,
		}
		p.consumer.Add(1)
		go func() {
			defer p.consumer.Done()
			for a := range mon.Alerts() {
				cfg.Logger.Info("alert", "node", a.Node, "time", a.Time, "job", a.Job,
					"score", a.Score, "level", a.Diagnosis.Level)
				t0 := time.Now()
				if err := sink.Send(a); err != nil {
					cfg.Logger.Warn("webhook delivery failed", "node", a.Node, "err", err)
				}
				tr.add(-1, "", "runtime.webhook", t0, time.Now(), 1)
				cfg.OnAlert(a)
			}
		}()
		var fvCtx context.Context
		fvCtx, p.fvCancel = context.WithCancel(context.Background())
		p.fv = fleetview.New(mon, *cfg.FleetView)
		go func() {
			defer close(p.fvDone)
			p.fv.Run(fvCtx)
		}()
		p.router = ingest.NewShardRouter(&timedSink{next: mon, tr: tr, in: env.in, name: "runtime.ingest"}, ingest.RouterConfig{
			Shards: cfg.Shards, QueueSize: cfg.QueueSize, Policy: cfg.Policy,
			Metrics: cfg.Metrics, Logger: cfg.Logger,
		})
		dec := ingest.NewDecoder(&timedSink{next: p.router, tr: tr, in: env.in, name: "ingest.router"},
			ingest.DecoderConfig{Metrics: cfg.Metrics, Logger: cfg.Logger})
		for node, metrics := range cfg.Layouts {
			dec.Register(node, metrics)
		}
		intake := ingest.NewIntake(dec, ingest.IntakeConfig{
			MaxBodyBytes: cfg.MaxBodyBytes, Metrics: cfg.Metrics, Logger: cfg.Logger,
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			p.shutdown()
			return nil, fmt.Errorf("intake listen: %w", err)
		}
		p.addr = ln.Addr().String()
		p.srv = &http.Server{
			Handler:           intake.Handler(),
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       30 * time.Second,
			WriteTimeout:      30 * time.Second,
		}
		go func() {
			defer close(p.serveDone)
			_ = p.srv.Serve(ln) // ErrServerClosed after Shutdown
		}()
		return p, nil
	}
}

func (p *tracedPipeline) Addr() string                { return p.addr }
func (p *tracedPipeline) Monitor() *runtime.Monitor   { return p.mon }
func (p *tracedPipeline) Router() *ingest.ShardRouter { return p.router }
func (p *tracedPipeline) WebhookFailures() int64 {
	return p.reg.Counter("nodesentry_webhook_failures_total").Value()
}

// Close drains in daemon.Daemon.Close's order: intake, shard queues, fleet
// view, monitor, alert consumer.
func (p *tracedPipeline) Close(ctx context.Context) error {
	err := p.srv.Shutdown(ctx)
	<-p.serveDone
	p.shutdown()
	return err
}

// shutdown stops everything behind the intake.
func (p *tracedPipeline) shutdown() {
	p.router.Drain()
	p.fvCancel()
	<-p.fvDone
	p.mon.Close()
	p.consumer.Wait()
	p.fv.Close()
}

// runTraced reports every per-layer metric from one traced run on the
// workload's first fleet (the fleet its untraced run starts with). It
// trains that fleet's detector at Quick scale with core's training stages
// traced and drives the stream path with it: one untraced closed-loop
// pass through daemon.New and one through the traced reassembly, whose
// ratio is trace.overhead, then one traced open-loop pass at openLoopRate,
// which the gen, ingest and runtime metrics come from. It replays the
// windows that pass scored through the public calls of core, diagnose, nn
// and mat, and runs one traced Detect pass over the fleet's test split.
// The gc.* readings bound the workload's own work: the traced closed-loop
// pass on stream, the Detect pass on detect, per sample processed.
func runTraced(workload string, seed int64) (*report, *tracer, error) {
	rep, tr, otr := newReport(), newTracer(), obs.NewTracer(nil)
	ds := buildFleet(fleetSeeds(seed, 1)[0])
	offline := newOfflineEnv(ds)
	trainStart := time.Now()
	det, err := trainDetector(ds, quickOptions(), otr)
	if err != nil {
		return nil, nil, err
	}
	trainStages(rep, tr, otr, trainStart)
	env, err := setupStream(ds, det)
	if err != nil {
		return nil, nil, err
	}
	hook, err := startWebhook()
	if err != nil {
		return nil, nil, err
	}
	defer hook.close()

	goruntime.GC()
	base, err := pass(env, daemonBuilder(env, hook), 0, nil)
	if err != nil {
		return nil, nil, err
	}
	rep.addPass("untraced closed loop", env, base)
	goruntime.GC()
	g := readGC()
	closed, err := pass(env, tracedBuilder(env, hook, tr), 0, tr)
	if err != nil {
		return nil, nil, err
	}
	if workload == "stream" {
		g.report(rep, readGC(), int64(closed.pushed))
	}
	rep.addPass("traced closed loop", env, closed)
	rep.set("trace.overhead", base.wall.Seconds()/closed.wall.Seconds(), "ratio", 2)

	goruntime.GC()
	from := tr.mark()
	open, err := pass(env, tracedBuilder(env, hook, tr), env.openLoopInterval(), tr)
	if err != nil {
		return nil, nil, err
	}
	rep.addPass("traced open loop", env, open)
	streamLayers(rep, tr, open, from)

	goruntime.GC()
	g = readGC()
	callMs, _, _, nonFinite := offline.detectPass(det, tr)
	if workload == "detect" {
		g.report(rep, readGC(), int64(offline.testSamples))
	}
	rep.res.Attempted += int64(len(offline.nodes))
	rep.res.Failed += int64(nonFinite)
	if nonFinite > 0 {
		rep.fail("%d nodes had non-finite scores", nonFinite)
	}
	rep.set("core.detect_ms_per_node", median(callMs), "ms", len(callMs))

	probe, err := det.Clone()
	if err != nil {
		return nil, nil, err
	}
	coreProbes(rep, tr, probe, env, open.scoredWins)
	frames := make([]*mts.NodeFrame, 0, len(open.scoredWins))
	for _, w := range open.scoredWins {
		frames = append(frames, windowFrame(env.ds, w.node, w.start, probe.WindowLen()))
	}
	return rep, tr, nnProbes(rep, tr, probe, frames)
}

// streamLayers records the gen, ingest and runtime metrics of a traced
// open-loop pass whose spans start at index from.
func streamLayers(rep *report, tr *tracer, open *passResult, from int) {
	rep.set("runtime.score_p50_ms", percentile(open.latMs, 50), "ms", len(open.latMs))
	rep.set("runtime.score_p99_ms", percentile(open.latMs, 99), "ms", len(open.latMs))
	rep.set("gen.late_p99_ms", percentile(open.lateMs, 99), "ms", len(open.lateMs))
	rep.set("gen.posts", float64(open.posts), "count", 0)
	rep.set("ingest.push_ms_p50", percentile(open.pushMs, 50), "ms", len(open.pushMs))
	rep.set("ingest.push_ms_p99", percentile(open.pushMs, 99), "ms", len(open.pushMs))
	rep.set("ingest.bytes_per_sample", float64(open.bytes)/float64(open.pushed), "B", open.pushed)
	wait := tr.durations("ingest.router", time.Microsecond, from)
	rep.set("ingest.router.wait_us_p50", percentile(wait, 50), "us", len(wait))
	rep.set("ingest.router.wait_us_p99", percentile(wait, 99), "us", len(wait))
	var most, total int64
	for _, l := range open.shardLoads {
		most, total = max(most, l), total+l
	}
	shards := float64(len(open.shardLoads))
	rep.set("ingest.router.shard_skew", float64(most)/(float64(total)/shards), "ratio", len(open.shardLoads))
	ingestUs := tr.durations("runtime.ingest", time.Microsecond, from)
	jobUs := tr.durations("runtime.ingest.job", time.Microsecond, from)
	rep.set("runtime.ingest_us_p50", percentile(ingestUs, 50), "us", len(ingestUs))
	rep.set("runtime.ingest_us_p99", percentile(ingestUs, 99), "us", len(ingestUs))
	busyS := (sum(ingestUs) + sum(jobUs)) / 1e6
	rep.set("runtime.busy_share", busyS/open.wall.Seconds()/shards, "ratio", len(ingestUs))
	rep.set("runtime.windows", float64(open.windows), "count", 0)
	rep.set("runtime.matches", float64(open.matches), "count", 0)
	rep.set("runtime.alerts", float64(len(open.alerts)), "count", 0)
	rep.set("runtime.webhook_failed", float64(open.webhookErr), "count", 0)
}
