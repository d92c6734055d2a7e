package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"nodesentry/internal/core"
	"nodesentry/internal/dataset"
	"nodesentry/internal/diagnose"
	"nodesentry/internal/mat"
	"nodesentry/internal/mts"
	"nodesentry/internal/nn"
	"nodesentry/internal/obs"
)

// maxProbeWindows bounds how many windows the nn probes replay.
const maxProbeWindows = 1000

// windowFrame is the raw frame of win samples of node starting at start.
func windowFrame(ds *dataset.Dataset, node string, start int64, win int) *mts.NodeFrame {
	f := ds.Frames[node]
	i := f.IndexOf(start)
	return f.Slice(i, i+win)
}

// timed runs fn and records it as a probe span.
func timed(tr *tracer, name string, items int64, fn func()) {
	t0 := time.Now()
	fn()
	tr.add(-1, "", name, t0, time.Now(), items)
}

// setMedianUs records the median duration of the named spans from index
// from on, in microseconds.
func setMedianUs(rep *report, tr *tracer, metricName, spanName string, from int) {
	d := tr.durations(spanName, time.Microsecond, from)
	rep.set(metricName, median(d), "us", len(d))
}

// trainStages converts core.Train's stage records into spans and the
// core.train.* metrics. The stages run one after another from trainStart.
func trainStages(rep *report, tr *tracer, otr *obs.Tracer, trainStart time.Time) {
	names := map[string]string{
		"preprocess": "preprocess", "segmentation": "segmentation",
		"features": "features", "hac": "hac", "train_models": "models",
	}
	at := trainStart
	for _, r := range otr.Records() {
		name, ok := names[r.Stage]
		if !ok {
			continue
		}
		tr.add(-1, "", "core.train."+name, at, at.Add(r.Wall()), r.Items)
		at = at.Add(r.Wall())
		rep.set("core.train."+name+"_s", r.Wall().Seconds(), "s", 1)
		switch r.Stage {
		case "segmentation":
			rep.set("core.train.segments", float64(r.Items), "count", 0)
		case "hac":
			rep.set("core.train.clusters", float64(r.Items), "count", 0)
		}
	}
}

// coreProbes replays the windows a stream pass scored through core's and
// diagnose's public calls, keeping per node the score history
// runtime.Monitor keeps for its threshold, and matches every completed
// match period once.
func coreProbes(rep *report, tr *tracer, det *core.Detector, env *streamEnv, wins []scoredWindow) {
	from := tr.mark()
	win, step := det.WindowLen(), env.in.step
	winSec, k := det.OnlineParams()
	histLen := int(winSec/step) * 2
	type history struct {
		seg    int
		scores []float64
	}
	hists := map[string]*history{}
	for _, w := range wins {
		frame := windowFrame(env.ds, w.node, w.start, win)
		segs := env.in.matchTs[w.node]
		si := segIndex(segs, w.start)
		offset := int((w.start - segs[si].firstTs) / step)
		timed(tr, "core.preprocess", int64(win), func() { det.Preprocess(frame) })
		var scores []float64
		timed(tr, "core.score", int64(win), func() { scores = det.ScoreFrame(frame, w.cluster, offset) })
		h := hists[w.node]
		if h == nil || h.seg != si {
			h = &history{seg: si}
			hists[w.node] = h
		}
		h.scores = append(h.scores, scores...)
		timed(tr, "core.threshold", int64(len(h.scores)), func() { core.KSigmaThreshold(h.scores, step, winSec, k) })
		if len(h.scores) > 4*histLen && histLen > 0 {
			h.scores = append([]float64(nil), h.scores[len(h.scores)-2*histLen:]...)
		}
		timed(tr, "diagnose.alarm", 1, func() { diagnose.Alarm(det, frame, win-1, 3) })
	}
	for _, node := range env.in.nodes {
		for _, s := range env.in.matchTs[node] {
			if s.matchTs < 0 {
				continue
			}
			f := env.ds.Frames[node]
			probe := f.Slice(f.IndexOf(s.firstTs), f.IndexOf(s.matchTs)+1)
			timed(tr, "core.match", int64(probe.Len()), func() { det.MatchPattern(probe) })
		}
	}
	setMedianUs(rep, tr, "core.preprocess_us", "core.preprocess", from)
	setMedianUs(rep, tr, "core.match_us", "core.match", from)
	setMedianUs(rep, tr, "core.score_us", "core.score", from)
	setMedianUs(rep, tr, "core.threshold_us", "core.threshold", from)
	setMedianUs(rep, tr, "diagnose.alarm_us", "diagnose.alarm", from)
}

// nnProbes times nn's public layers at the detector's shapes — InputDim
// is its reduced metric count, the rest Options.Model — on the given raw
// windows after the detector's preprocessing. The weights are freshly
// initialized: what a window costs does not depend on them (expert
// routing moves tokens between equally sized experts). nn.step_us is one
// Forward + WMSE + Backward + clip + Adam step at the training window
// shape. mat.mul_gflops times MulInto at the
// model's dominant product, [window × ModelDim]·[ModelDim × ModelDim].
func nnProbes(rep *report, tr *tracer, det *core.Detector, frames []*mts.NodeFrame) error {
	from := tr.mark()
	opts := core.DefaultOptions()
	cfg := opts.Model
	cfg.InputDim = len(det.ReducedMetricNames())
	cfg.UseMoE = !opts.DenseFFN
	cfg.SegmentAwarePE = !opts.FlatPositionalEncoding
	cfg.Seed = opts.Seed
	model, err := nn.NewReconstructor(cfg)
	if err != nil {
		return fmt.Errorf("nn probe: %w", err)
	}
	cfg = model.Config
	rng := rand.New(rand.NewSource(opts.Seed))
	embed := nn.NewDense(cfg.InputDim, cfg.ModelDim, rng)
	pe := &nn.PositionalEncoding{Dim: cfg.ModelDim, SegmentAware: cfg.SegmentAwarePE}
	attn, err := nn.NewMultiHeadAttention(cfg.ModelDim, cfg.Heads, rng)
	if err != nil {
		return fmt.Errorf("nn probe: %w", err)
	}
	moe, err := nn.NewMoE(cfg.ModelDim, cfg.Hidden, cfg.Experts, cfg.TopK, rng)
	if err != nil {
		return fmt.Errorf("nn probe: %w", err)
	}
	student, err := nn.NewReconstructor(cfg)
	if err != nil {
		return fmt.Errorf("nn probe: %w", err)
	}
	params := student.Params()
	adam := nn.NewAdam(params, opts.LR)
	if len(frames) > maxProbeWindows {
		frames = frames[:maxProbeWindows]
	}
	for _, frame := range frames {
		f := det.Preprocess(frame)
		T := f.Len()
		x := mat.New(T, cfg.InputDim)
		for t := 0; t < T; t++ {
			for m := range f.Data {
				x.Set(t, m, f.Data[m][t])
			}
		}
		positions, segIDs := make([]int, T), make([]int, T)
		for t := range positions {
			positions[t] = t
		}
		timed(tr, "nn.forward", int64(T), func() { model.Forward(x, positions, segIDs) })
		h := mat.Scale(embed.Forward(x), math.Sqrt(float64(cfg.ModelDim)))
		timed(tr, "nn.posenc", int64(T), func() { pe.Apply(h, positions, segIDs) })
		timed(tr, "nn.attention", int64(T), func() { attn.Forward(h) })
		timed(tr, "nn.moe", int64(T), func() { moe.Forward(h) })
		timed(tr, "nn.step", int64(T), func() {
			out := student.Forward(x, positions, segIDs)
			_, grad := nn.WMSE(out, x, nil)
			student.Backward(grad)
			nn.ClipGradients(params, 5)
			adam.Step()
		})
	}
	setMedianUs(rep, tr, "nn.forward_us", "nn.forward", from)
	setMedianUs(rep, tr, "nn.posenc_us", "nn.posenc", from)
	setMedianUs(rep, tr, "nn.attention_us", "nn.attention", from)
	setMedianUs(rep, tr, "nn.moe_us", "nn.moe", from)
	setMedianUs(rep, tr, "nn.step_us", "nn.step", from)
	flops, bytes := windowCost(cfg, det.WindowLen())
	rep.set("nn.flops_per_window", flops, "flop", 0)
	rep.set("nn.bytes_per_window", bytes, "B", 0)

	T, D := det.WindowLen(), cfg.ModelDim
	a, b, dst := mat.New(T, D), mat.New(D, D), mat.New(T, D)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	const reps = 20000
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		mat.MulInto(dst, a, b)
	}
	el := time.Since(t0)
	tr.add(-1, "", "mat.mul", t0, t0.Add(el), reps)
	rep.set("mat.mul_gflops", 2*float64(T*D*D)*reps/el.Seconds()/1e9, "GFLOP/s", reps)
	return nil
}

// windowCost counts one window's forward matrix-product FLOPs (2 per
// multiply-add) and the bytes of float64 weights and input/output it
// touches, from the layer shapes alone. Top-k routing sends each token
// through TopK experts; every expert's weights are counted as read.
func windowCost(cfg nn.ReconstructorConfig, T int) (flops, bytes float64) {
	t, in, d, h, e, k := float64(T), float64(cfg.InputDim), float64(cfg.ModelDim),
		float64(cfg.Hidden), float64(cfg.Experts), float64(cfg.TopK)
	block := 4*2*t*d*d + // Q, K, V and output projections
		2*2*t*t*d + // QKᵀ and attention·V over all heads
		2*t*d*e + // gate
		k*2*2*t*d*h // routed expert MLPs
	flops = 2*t*in*d + float64(cfg.Blocks)*block + 2*t*d*in
	params := in*d + d + // embed
		float64(cfg.Blocks)*(4*d+4*d*d+d*e+e*(d*h+h+h*d+d)) + // norms, attention, gate, experts
		d*in + in // decode
	bytes = 8 * (params + 2*t*in)
	return flops, bytes
}
