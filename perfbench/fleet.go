package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"

	"nodesentry/internal/core"
	"nodesentry/internal/dataset"
	"nodesentry/internal/mts"
)

// Fleets per run. A run replays several D1'-sized fleets
// (dataset.D1Small, 16 nodes), each with its own seed drawn from --seed
// and its own detector, and pools their results. One seed's job mix,
// faults and trained detector move F1 by a fifth and throughput by a
// tenth from the next seed's; one fleet four times as wide averages the
// job mix out but keeps the one detector, while independent fleets
// average both. Stream uses fewer fleets because each costs about three
// times as much to replay; each also yields about 1,300 scored windows for
// the latency percentiles.
const (
	streamFleets = 4
	detectFleets = 5
)

// fleetSeeds draws a run's n fleet seeds from its --seed.
func fleetSeeds(seed int64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	return seeds
}

// buildFleet materializes a D1'-shaped dataset (dataset.D1Small: 16 nodes,
// 8 cores, 96 raw metrics, 60 s step, the D1' job mix) with the given
// seed. The program under test only ever sees the generated frames.
func buildFleet(seed int64) *dataset.Dataset {
	cfg := dataset.D1Small()
	cfg.Seed = seed
	return dataset.Build(cfg)
}

// quickOptions is the repository's Quick training scale
// (internal/experiments): DefaultOptions' model shape, so one window costs
// the same to score, with fewer epochs and windows.
func quickOptions() core.Options {
	opts := core.DefaultOptions()
	opts.Epochs = 6
	opts.MaxWindowsPerCluster = 120
	opts.RepSegments = 5
	opts.KMax = 8
	return opts
}

// staggered returns a view of ds in which node i's telemetry starts i mod
// win samples into the test split, for streaming. Replaying every node
// from the same sample would make the monitor start all of them on one
// tick: every node's match period would complete on the same tick, and
// nodes still in their first job would keep scoring windows on the same
// ticks, in fleet-wide bursts a running daemon does not see. Training uses
// the unstaggered training split.
func staggered(ds *dataset.Dataset, win int) *dataset.Dataset {
	out := *ds
	out.Frames = make(map[string]*mts.NodeFrame, len(ds.Frames))
	split := ds.SplitTime()
	for i, node := range ds.Nodes() {
		f := ds.Frames[node]
		out.Frames[node] = f.Slice(f.IndexOf(split)+i%win, f.Len())
	}
	return &out
}

// replayInput is the stream workload's input: the test split as one JSONL
// push body per scrape tick, in global time order.
type replayInput struct {
	nodes   []string
	step    int64
	firstTs int64
	bodies  [][]byte
	// counts[i] is the number of sample lines in bodies[i]; samples is
	// their sum.
	counts  []int
	samples int
	// layouts are the per-node metric orders sentryd pre-registers.
	layouts map[string][]string
	// matchTs[node] lists, per job segment in time order, the segment's
	// first sample time and the time of the sample that completes its
	// match period (matchTs < 0 when the segment never completes one).
	matchTs map[string][]segMatch
}

// segMatch records when one job segment's pattern match completes.
type segMatch struct {
	firstTs int64
	matchTs int64
}

// tickOf maps a sample time to its tick (body) index.
func (in *replayInput) tickOf(ts int64) int { return int((ts - in.firstTs) / in.step) }

// encodeReplay renders the test split [split, horizon) as push bodies, one
// per tick holding every node's sample of that tick. Each node's event
// order — job transitions with a start at or before the sample, then the
// sample — is exactly runtime.Replay's, and the monitor keeps no state
// across nodes, so a Replay over the same window is the reference for the
// streamed alerts.
func encodeReplay(ds *dataset.Dataset, matchPeriodSec int64) (*replayInput, error) {
	from, to := ds.SplitTime(), ds.Horizon
	nodes := ds.Nodes()
	in := &replayInput{
		nodes:   nodes,
		step:    ds.Step,
		layouts: map[string][]string{},
		matchTs: map[string][]segMatch{},
	}
	views := make([]*mts.NodeFrame, len(nodes))
	spans := make([][]mts.JobSpan, len(nodes))
	names := make([][]byte, len(nodes))
	lastTs := int64(-1)
	for i, node := range nodes {
		f := ds.Frames[node]
		v := f.Slice(f.IndexOf(from), f.IndexOf(to))
		if v.Len() == 0 || v.Start <= 0 || v.Step != ds.Step {
			return nil, fmt.Errorf("node %s: empty, zero-based or off-step test split", node)
		}
		views[i], spans[i], in.layouts[node] = v, ds.SpansForNode(node, from, to), v.Metrics
		if i == 0 || v.Start < in.firstTs {
			in.firstTs = v.Start
		}
		if end := v.TimeAt(v.Len() - 1); end > lastTs {
			lastTs = end
		}
		// The monitor starts probing at a node's first sample even before
		// any transition is announced.
		in.matchTs[node] = []segMatch{{firstTs: v.Start, matchTs: -1}}
		b, err := json.Marshal(node)
		if err != nil {
			return nil, fmt.Errorf("encode node name %q: %w", node, err)
		}
		names[i] = b
	}
	need := matchSamples(matchPeriodSec, ds.Step)
	next := make([]int, len(nodes))
	seen := make([]int, len(nodes)) // samples since the last transition
	var buf []byte
	for ts := in.firstTs; ts <= lastTs; ts += in.step {
		buf = buf[:0]
		n := 0
		for i, node := range nodes {
			v := views[i]
			if (ts-v.Start)%in.step != 0 {
				return nil, fmt.Errorf("node %s: samples off the fleet's time grid", node)
			}
			t := int((ts - v.Start) / in.step)
			if t < 0 || t >= v.Len() {
				continue
			}
			for next[i] < len(spans[i]) && spans[i][next[i]].Start <= ts {
				sp := spans[i][next[i]]
				buf = appendJobLine(buf, names[i], sp.Job, sp.Start)
				if seen[i] == 0 {
					// No sample since the previous transition: the
					// segment it opened is empty and this one replaces it.
					in.matchTs[node][len(in.matchTs[node])-1] = segMatch{firstTs: ts, matchTs: -1}
				} else {
					in.matchTs[node] = append(in.matchTs[node], segMatch{firstTs: ts, matchTs: -1})
				}
				seen[i] = 0
				next[i]++
			}
			buf = appendSampleLine(buf, names[i], ts, v.Window(t))
			n++
			seen[i]++
			if seen[i] == need {
				segs := in.matchTs[node]
				segs[len(segs)-1].matchTs = ts
			}
		}
		in.bodies = append(in.bodies, append([]byte(nil), buf...))
		in.counts = append(in.counts, n)
		in.samples += n
	}
	return in, nil
}

// appendJobLine appends a JSONL job-transition line (see ingest.Line).
func appendJobLine(b, node []byte, job, start int64) []byte {
	b = append(b, `{"node":`...)
	b = append(b, node...)
	b = append(b, `,"job":`...)
	b = strconv.AppendInt(b, job, 10)
	b = append(b, `,"start":`...)
	b = strconv.AppendInt(b, start, 10)
	return append(b, "}\n"...)
}

// appendSampleLine appends a JSONL sample line (see ingest.Line). Values
// are written in the shortest form that parses back to the same float64,
// with NaN and ±Inf as the quoted forms ingest.JSONFloat accepts, so the
// daemon decodes exactly the values the reference replay ingests.
func appendSampleLine(b, node []byte, ts int64, values []float64) []byte {
	b = append(b, `{"node":`...)
	b = append(b, node...)
	b = append(b, `,"time":`...)
	b = strconv.AppendInt(b, ts, 10)
	b = append(b, `,"values":[`...)
	for i, v := range values {
		if i > 0 {
			b = append(b, ',')
		}
		switch {
		case math.IsNaN(v):
			b = append(b, `"NaN"`...)
		case math.IsInf(v, 1):
			b = append(b, `"+Inf"`...)
		case math.IsInf(v, -1):
			b = append(b, `"-Inf"`...)
		default:
			b = strconv.AppendFloat(b, v, 'g', -1, 64)
		}
	}
	return append(b, "]}\n"...)
}

// matchSamples is how many post-transition samples runtime.Monitor
// collects before it matches the job's pattern.
func matchSamples(matchPeriodSec, step int64) int {
	need := int(matchPeriodSec / step)
	if need < 2 {
		need = 2
	}
	return need
}

// newestSample is the latency attribution rule: a window's score depends
// on its own last sample and, until the job's pattern is matched, on the
// sample that completed the match period. The later of the two is the
// sample whose due time starts the window's intake-to-score clock, so
// neither window length nor match period counts as latency while queue
// wait does.
func newestSample(winStart int64, winLen int, step int64, segs []segMatch) int64 {
	last := winStart + int64(winLen-1)*step
	if i := segIndex(segs, winStart); i >= 0 && segs[i].matchTs > last {
		return segs[i].matchTs
	}
	return last
}

// segIndex returns the index of the segment holding the sample at ts: the
// last one that starts at or before it (-1 when none does).
func segIndex(segs []segMatch, ts int64) int {
	return sort.Search(len(segs), func(i int) bool { return segs[i].firstTs > ts }) - 1
}

// finite reports whether every score is a finite number.
func finite(scores []float64) bool {
	for _, s := range scores {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			return false
		}
	}
	return true
}
