package main

import (
	"fmt"
	"math"
	goruntime "runtime"
	"time"

	"nodesentry"
	"nodesentry/internal/core"
	"nodesentry/internal/dataset"
	"nodesentry/internal/eval"
	"nodesentry/internal/mts"
	"nodesentry/internal/obs"
)

// minDetectPasses is the fewest Detect passes a detect run makes over
// each fleet; the median pass counts, and F1 must repeat between them.
const minDetectPasses = 2

// trainDetector trains a detector on ds's training split. tr, when
// non-nil, receives the training stages through core's Trace hook.
//
// It collects garbage first, so that training starts from a heap goal of
// twice the fleet's data rather than twice whatever the fleet build held
// when a cycle last ran; without it one seed's peak RSS read 145 MB or
// 200 MB from run to run on detect.
func trainDetector(ds *dataset.Dataset, opts core.Options, tr *obs.Tracer) (*core.Detector, error) {
	goruntime.GC()
	in := nodesentry.TrainInputFromDataset(ds)
	in.Trace = tr
	det, err := core.Train(in, opts)
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	return det, nil
}

// pooled is what a run gathers over its fleets for the end-to-end metrics
// every workload reports.
type pooled struct {
	setupS  []float64 // one per fleet set-up
	rssMB   []float64 // peak resident set size per fleet
	latMs   []float64 // score latencies, all fleets
	results []eval.NodeResult
}

// report records the end-to-end metrics, and the score latency
// percentiles as notes; samplesPerS is the workload's own.
func (p *pooled) report(r *report, samplesPerS float64, samples int) {
	f1 := nodesentry.AggregateNodeResults(p.results).F1
	r.set("setup_s", median(p.setupS), "s", len(p.setupS))
	r.set("samples_per_s", samplesPerS, "1/s", samples)
	r.note("score_p50_ms", percentile(p.latMs, 50), "ms", len(p.latMs))
	r.note("score_p99_ms", percentile(p.latMs, 99), "ms", len(p.latMs))
	r.set("f1", f1, "ratio", len(p.results))
	r.set("peak_rss_mb", median(p.rssMB), "MB", len(p.rssMB))
	if math.IsNaN(f1) || f1 <= 0 {
		r.fail("f1 is %v", f1)
	}
}

// addSetup records one fleet's set-up time, from clk's start.
func (p *pooled) addSetup(clk stealClock) error {
	d, err := clk.elapsed()
	p.setupS = append(p.setupS, d.Seconds())
	return err
}

// fleetRSS records the peak resident set size of one fleet's work.
func (p *pooled) fleetRSS(stop func() (float64, error)) error {
	rss, err := stop()
	p.rssMB = append(p.rssMB, rss)
	return err
}

// runStream measures sentryd's standalone wiring on each fleet in turn:
// closed-loop passes, at least one, fill the fleet's share of the budget
// that its fixed-length open-loop pass at openLoopRate leaves; then the
// open-loop pass. Every pass runs on a fresh daemon and is checked
// against the fleet's reference replay. samples_per_s pools the fleets:
// their samples ÷ the sum of their median closed-pass times, each with
// the hypervisor's steal taken out (stealClock).
func runStream(seed int64, seconds int) (*report, error) {
	rep := newReport()
	var p pooled
	hook, err := startWebhook()
	if err != nil {
		return nil, err
	}
	defer hook.close()
	var samples int
	var wallS float64
	share := time.Duration(seconds) * time.Second / streamFleets
	for _, fs := range fleetSeeds(seed, streamFleets) {
		stopRSS := watchRSS()
		clk, err := startClock()
		if err != nil {
			return nil, err
		}
		ds := buildFleet(fs)
		det, err := trainDetector(ds, quickOptions(), nil)
		if err != nil {
			return nil, fmt.Errorf("stream: %w", err)
		}
		env, err := setupStream(ds, det)
		if err != nil {
			return nil, err
		}
		if err := p.addSetup(clk); err != nil {
			return nil, err
		}

		build := daemonBuilder(env, hook)
		interval := env.openLoopInterval()
		budget := share - time.Duration(len(env.in.bodies))*interval
		var walls []float64
		for t0 := time.Now(); len(walls) == 0 || time.Since(t0) < budget; {
			goruntime.GC()
			clk, err := startClock()
			if err != nil {
				return nil, err
			}
			res, err := pass(env, build, 0, nil)
			if err != nil {
				return nil, err
			}
			kept, err := clk.unstolen()
			if err != nil {
				return nil, err
			}
			rep.addPass("closed loop", env, res)
			walls = append(walls, res.wall.Seconds()*kept)
		}
		samples += env.in.samples
		wallS += median(walls)
		goruntime.GC()
		open, err := pass(env, build, interval, nil)
		if err != nil {
			return nil, err
		}
		rep.addPass("open loop", env, open)
		p.latMs = append(p.latMs, open.latMs...)
		p.results = append(p.results, streamResults(env, open)...)
		if err := p.fleetRSS(stopRSS); err != nil {
			return nil, err
		}
	}
	p.report(rep, float64(samples)/wallS, samples)
	return rep, nil
}

// openLoopInterval spaces the per-tick bodies so that samples arrive at
// openLoopRate on average.
func (env *streamEnv) openLoopInterval() time.Duration {
	perBody := float64(env.in.samples) / float64(len(env.in.bodies))
	return time.Duration(float64(time.Second) * perBody / openLoopRate)
}

// offlineEnv is a fleet as offline detection uses it.
type offlineEnv struct {
	ds    *dataset.Dataset
	nodes []string
	test  map[string]*mts.NodeFrame
	spans map[string][]mts.JobSpan
	// testSamples counts samples over every node's test split.
	testSamples int
}

func newOfflineEnv(ds *dataset.Dataset) *offlineEnv {
	env := &offlineEnv{ds: ds, nodes: ds.Nodes(), test: ds.TestFrames(), spans: map[string][]mts.JobSpan{}}
	for _, node := range env.nodes {
		env.spans[node] = ds.SpansForNode(node, ds.SplitTime(), ds.Horizon)
		env.testSamples += env.test[node].Len()
	}
	return env
}

// detectPass runs Detect on every test node in node order from one
// goroutine, as nodesentry.EvaluateDetector does, timing each call. tr,
// when non-nil, records one span per call.
func (env *offlineEnv) detectPass(det *core.Detector, tr *tracer) (callMs []float64, wall time.Duration, results []eval.NodeResult, nonFinite int) {
	results = make([]eval.NodeResult, 0, len(env.nodes))
	for _, node := range env.nodes {
		frame, spans := env.test[node], env.spans[node]
		t0 := time.Now()
		res := det.Detect(frame, spans)
		t1 := time.Now()
		tr.add(-1, "", "core.detect", t0, t1, int64(frame.Len()))
		wall += t1.Sub(t0)
		callMs = append(callMs, float64(t1.Sub(t0))/float64(time.Millisecond))
		if !finite(res.Scores) {
			nonFinite++
		}
		results = append(results, nodesentry.EvaluateNodeOutput(env.ds, frame, spans, res.Scores, res.Preds))
	}
	return callMs, wall, results, nonFinite
}

// runDetect measures offline detection on each fleet in turn: set-up
// trains at Quick scale, then Detect passes over the test split, at least
// minDetectPasses of them, fill the fleet's share of the budget.
// samples_per_s pools the fleets: their test samples ÷ the sum of their
// median pass times, with steal taken out as on stream. Every pass must
// give the fleet the same F1.
func runDetect(seed int64, seconds int) (*report, error) {
	rep := newReport()
	var p pooled
	var samples int
	var wallS float64
	share := time.Duration(seconds) * time.Second / detectFleets
	for _, fs := range fleetSeeds(seed, detectFleets) {
		stopRSS := watchRSS()
		clk, err := startClock()
		if err != nil {
			return nil, err
		}
		env := newOfflineEnv(buildFleet(fs))
		det, err := trainDetector(env.ds, quickOptions(), nil)
		if err != nil {
			return nil, fmt.Errorf("detect: %w", err)
		}
		if err := p.addSetup(clk); err != nil {
			return nil, err
		}

		var walls []float64
		fleetF1 := math.NaN()
		for t0 := time.Now(); len(walls) < minDetectPasses || time.Since(t0) < share; {
			goruntime.GC()
			clk, err := startClock()
			if err != nil {
				return nil, err
			}
			callMs, wall, results, nonFinite := env.detectPass(det, nil)
			kept, err := clk.unstolen()
			if err != nil {
				return nil, err
			}
			rep.res.Attempted += int64(len(env.nodes))
			rep.res.Failed += int64(nonFinite)
			if nonFinite > 0 {
				rep.fail("%d nodes had non-finite scores", nonFinite)
			}
			f1 := nodesentry.AggregateNodeResults(results).F1
			if math.IsNaN(fleetF1) {
				p.results = append(p.results, results...)
			} else if f1 != fleetF1 {
				rep.fail("fleet %d: f1 changed between passes: %v then %v", fs, fleetF1, f1)
			}
			fleetF1 = f1
			p.latMs = append(p.latMs, callMs...)
			walls = append(walls, wall.Seconds()*kept)
		}
		samples += env.testSamples
		wallS += median(walls)
		if err := p.fleetRSS(stopRSS); err != nil {
			return nil, err
		}
	}
	p.report(rep, float64(samples)/wallS, samples)
	return rep, nil
}
