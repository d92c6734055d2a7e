package core

import (
	"math"
	"math/rand"
	"testing"

	"nodesentry/internal/mts"
	"nodesentry/internal/nn"
	"nodesentry/internal/preprocess"
	"nodesentry/internal/stats"
)

// refScoreSegment is the reference window scorer: one freshly allocated
// window per segmentWindows tile, Reconstructor.Forward, nn.ReconErrors,
// scaled and written back by job position (the tail tile last).
func refScoreSegment(d *Detector, f *mts.NodeFrame, seg mts.Segment, c int, scores []float64) {
	cm := d.library[c]
	inv := 1.0
	if cm.scale > 0 {
		inv = 1 / cm.scale
	}
	for _, w := range segmentWindows(f, seg, 0, d.opts.WindowLen) {
		out := cm.model.Forward(w.x, w.positions, w.segIDs)
		errs := nn.ReconErrors(out, w.x, cm.weights)
		for i, e := range errs {
			scores[seg.Lo+w.positions[i]-seg.Offset] = e * inv
		}
	}
}

// refKSigmaThreshold is the reference k-sigma rule, written out in full.
func refKSigmaThreshold(scores []float64, step, windowSec int64, k float64) []bool {
	w := int(windowSec / step)
	if w < 4 {
		w = 4
	}
	preds := make([]bool, len(scores))
	for t := range scores {
		lo := t - w
		if lo < 0 {
			lo = 0
		}
		win := scores[lo:t]
		if len(win) < 4 {
			hi := w
			if hi > len(scores) {
				hi = len(scores)
			}
			win = scores[:hi]
		}
		mean, sd := stats.MeanStd(win)
		floor := 0.1*mean + 1e-9
		if sd < floor {
			sd = floor
		}
		preds[t] = scores[t] > mean+k*sd
	}
	return preds
}

// refDetect is Detect rebuilt from the reference scorer and threshold.
func refDetect(d *Detector, frame *mts.NodeFrame, spans []mts.JobSpan) ([]float64, []bool, []mts.Segment) {
	f := d.Preprocess(frame)
	scores := make([]float64, f.Len())
	segs := preprocess.Segment(f, spans, 2)
	if len(segs) == 0 && f.Len() >= 2 {
		segs = []mts.Segment{{Node: f.Node, Job: mts.IdleJobID, Lo: 0, Hi: f.Len()}}
	}
	for _, seg := range segs {
		refScoreSegment(d, f, seg, d.matchSegment(f, seg).Cluster, scores)
	}
	preds := make([]bool, len(scores))
	for _, seg := range segs {
		sub := refKSigmaThreshold(scores[seg.Lo:seg.Hi], f.Step, d.opts.ThresholdWindowSec, d.opts.KSigma)
		if d.opts.MinConsecutive > 1 {
			sub = Debounce(sub, d.opts.MinConsecutive)
		}
		copy(preds[seg.Lo:], sub)
	}
	return scores, preds, segs
}

func sameBits(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestDetectMatchesReferenceScorer pins Detect's scores and preds bit for
// bit to the reference scorer, over the fixture's job spans plus a
// hand-made span set that forces a segment shorter than the window, one
// with an end-aligned tail, and one that joins its job mid-way (non-zero
// position offset).
func TestDetectMatchesReferenceScorer(t *testing.T) {
	fx, d := trainFixture(t, fastOptions())
	ds := fx.ds
	W := d.WindowLen()
	test := ds.TestFrames()
	var short, tail bool
	check := func(name string, frame *mts.NodeFrame, spans []mts.JobSpan) {
		t.Helper()
		res := d.Detect(frame, spans)
		scores, preds, segs := refDetect(d, frame, spans)
		if i := sameBits(res.Scores, scores); i != -1 {
			t.Fatalf("%s: score[%d] = %v, reference %v", name, i, res.Scores[i], scores[i])
		}
		for i := range preds {
			if res.Preds[i] != preds[i] {
				t.Fatalf("%s: pred[%d] = %v, reference %v", name, i, res.Preds[i], preds[i])
			}
		}
		for _, seg := range segs {
			short = short || seg.Len() < W
			tail = tail || (seg.Len() > W && seg.Len()%W != 0)
		}
	}
	for _, node := range ds.Nodes() {
		check(node, test[node], ds.SpansForNode(node, ds.SplitTime(), ds.Horizon))
	}

	node := ds.Nodes()[0]
	frame := test[node]
	at := func(i int) int64 { return frame.Start + int64(i)*frame.Step }
	cut1, cut2 := W/2, W/2+2*W+7
	crafted := []mts.JobSpan{
		{Job: 1, Node: node, Start: at(-5), End: at(cut1)},
		{Job: 2, Node: node, Start: at(cut1), End: at(cut2)},
		{Job: 3, Node: node, Start: at(cut2), End: at(frame.Len())},
	}
	check(node+"/crafted", frame, crafted)
	if !short || !tail {
		t.Fatalf("coverage: short segment %v, end-aligned tail %v", short, tail)
	}
}

// TestScoreFrameMatchesReferenceScorer covers the streaming entry point on
// frames shorter than, equal to and longer than the model window.
func TestScoreFrameMatchesReferenceScorer(t *testing.T) {
	fx, d := trainFixture(t, fastOptions())
	W := d.WindowLen()
	full := fx.ds.TestFrames()[fx.ds.Nodes()[1]]
	for _, n := range []int{1, W / 2, W, W + 1, 3*W + 5} {
		frame := full.Slice(0, n)
		for c := 0; c < d.NumClusters(); c++ {
			const offset = 37
			got := d.ScoreFrame(frame, c, offset)
			want := make([]float64, n)
			f := d.Preprocess(frame)
			refScoreSegment(d, f, mts.Segment{Node: f.Node, Job: mts.IdleJobID, Lo: 0, Hi: n, Offset: offset}, c, want)
			if i := sameBits(got, want); i != -1 {
				t.Fatalf("n=%d cluster %d: score[%d] = %v, reference %v", n, c, i, got[i], want[i])
			}
		}
	}
	if got := d.ScoreFrame(full.Slice(0, W), -1, 0); len(got) != W {
		t.Errorf("out-of-range cluster: %d scores, want %d zeros", len(got), W)
	}
}

// TestKSigmaBoundMatchesReference checks KSigmaThreshold, and the bound
// itself at every t, against the reference rule on random and flat
// histories — short heads, the sigma floor, and window lengths below the
// 4-sample clamp included.
func TestKSigmaBoundMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var histories [][]float64
	for n := 0; n <= 3; n++ {
		h := make([]float64, n)
		for i := range h {
			h[i] = rng.Float64()
		}
		histories = append(histories, h)
	}
	random := make([]float64, 300)
	for i := range random {
		random[i] = math.Abs(rng.NormFloat64())
		if i%41 == 0 {
			random[i] *= 20
		}
	}
	flat := make([]float64, 120)
	for i := range flat {
		flat[i] = 1
	}
	flat[90] = 1.5
	histories = append(histories, random, flat, make([]float64, 50))

	for hi, h := range histories {
		for _, win := range []struct{ step, sec int64 }{{60, 1800}, {60, 120}, {10, 10}, {60, 0}} {
			for _, k := range []float64{1, 3} {
				want := refKSigmaThreshold(h, win.step, win.sec, k)
				got := KSigmaThreshold(h, win.step, win.sec, k)
				for t2 := range h {
					bound := KSigmaBound(h, t2, win.step, win.sec, k)
					if got[t2] != want[t2] || (h[t2] > bound) != want[t2] {
						t.Fatalf("history %d step %d window %ds k=%v: t=%d pred %v, bound %v says %v, reference %v",
							hi, win.step, win.sec, k, t2, got[t2], bound, h[t2] > bound, want[t2])
					}
				}
			}
		}
	}
	if b := KSigmaBound(nil, 0, 60, 1800, 3); b != 0 {
		t.Errorf("empty history bound = %v, want 0", b)
	}
}
