// Package runtime implements the paper's deployment workflow (§5.1,
// Fig. 7): telemetry samples stream in per node, job transitions arrive
// from the scheduler, NodeSentry matches each new job's pattern after a
// short observation period, scores windows in real time, applies the
// dynamic threshold, and emits prioritized alerts with a fault-level
// diagnosis attached.
//
// Concurrency model: collectors may call Ingest and ObserveJob from any
// goroutine. Per-node state is guarded by a per-node mutex; the expensive
// model invocations run on a fixed pool of detector clones (a Detector is
// not safe for concurrent use), checked out through a buffered channel.
// Alerts are delivered on a buffered channel; if the consumer falls behind,
// alerts are counted as dropped rather than blocking ingestion.
package runtime

import (
	"log/slog"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nodesentry/internal/core"
	"nodesentry/internal/diagnose"
	"nodesentry/internal/mat"
	"nodesentry/internal/mts"
	"nodesentry/internal/obs"
)

// Alert is one prioritized anomaly notification.
type Alert struct {
	Node  string
	Time  int64
	Job   int64
	Score float64
	// Priority grows with how far the score exceeded the threshold.
	Priority Priority
	// Diagnosis attributes the alarm to metrics and a Table 1 fault level.
	Diagnosis diagnose.Report
	// Epoch identifies the detector generation that scored the alerted
	// window: 1 is the generation NewMonitor installed, and each
	// SwapDetector increments it. Consumers use it to attribute alerts
	// across a hot swap.
	Epoch int64
}

// Priority grades an alert.
type Priority int

// Alert priorities.
const (
	Warning Priority = iota
	Critical
)

// Config parameterizes a Monitor.
type Config struct {
	// Step is the sampling interval in seconds.
	Step int64
	// ScoringWorkers is the size of the detector-clone pool (default 2).
	ScoringWorkers int
	// AlertBuffer is the alert channel capacity (default 256).
	AlertBuffer int
	// CooldownSec suppresses repeat alerts per node within the window
	// (default 300 s).
	CooldownSec int64
	// CriticalFactor promotes an alert to Critical when the score exceeds
	// the threshold by this factor (default 2).
	CriticalFactor float64
	// Metrics, when non-nil, receives the monitor's operational series
	// (ingest/alert counters, match/score latency histograms, per-node
	// threshold and backlog gauges — see DESIGN.md's observability
	// appendix). A nil registry disables instrumentation at the cost of
	// one nil check per record; detection output is identical either way.
	Metrics *obs.Registry
	// Logger, when non-nil, receives structured runtime events (job
	// transitions at Debug, alert drops at Warn). Nil disables logging.
	Logger *slog.Logger
	// Deprecated: ignored (scores are identical either way).
	BatchWindows int
}

func (c Config) withDefaults() Config {
	if c.ScoringWorkers <= 0 {
		c.ScoringWorkers = 2
	}
	if c.AlertBuffer <= 0 {
		c.AlertBuffer = 256
	}
	if c.CooldownSec <= 0 {
		c.CooldownSec = 300
	}
	if c.CriticalFactor <= 0 {
		c.CriticalFactor = 2
	}
	return c
}

// nodeState is one node's streaming context.
type nodeState struct {
	mu       sync.Mutex
	node     string
	metrics  []string
	job      int64
	jobStart int64

	// raw sample buffer since the last scored window boundary.
	pending [][]float64
	pendTs  []int64
	// probe accumulates the post-transition observation window until the
	// pattern is matched.
	probe   [][]float64
	probeTs []int64
	matched bool
	cluster int
	// samples consumed since job start (drives job-aligned positions).
	consumed int
	// score history for the dynamic threshold.
	scores    []float64
	lastAlert int64
	// lastThr is the k-sigma bound the next sample will be compared
	// against, refreshed once per scored window (diagnostic: exported via
	// NodeStatus.Threshold and the per-node threshold gauge).
	lastThr float64

	// lastIngest/lastScored track the node's scoring lag: the newest
	// ingested sample timestamp vs. the newest timestamp covered by a
	// scored window.
	lastIngest int64
	lastScored int64
	// dropped counts this node's alerts discarded by a full alert channel
	// (atomic: bumped outside the node lock on the delivery path).
	dropped atomic.Int64

	// Per-node observability gauges (nil when metrics are disabled).
	thrGauge *obs.Gauge
	bufGauge *obs.Gauge

	// frame is the node's reusable scratch for probe/window frames: the
	// detector copies frame data during preprocessing and alert diagnosis
	// clones on demand, so nothing downstream retains it and the matrix-
	// backed storage grows once per shape.
	frame     mts.NodeFrame
	frameMat  *mat.Matrix
	frameRows [][]float64
}

// frameInto assembles a NodeFrame from row-major samples into the node's
// scratch storage. The returned frame is valid until the next frameInto
// call on the same node; callers needing to retain it must Clone. Called
// with st.mu held.
func (st *nodeState) frameInto(rows [][]float64, start, step int64) *mts.NodeFrame {
	M := len(st.metrics)
	T := len(rows)
	if st.frameMat == nil || st.frameMat.Rows < M || st.frameMat.Cols < T {
		st.frameMat = mat.New(M, T)
	}
	st.frameRows = st.frameMat.RowViews(st.frameRows[:0], T)
	data := st.frameRows[:M]
	for t, row := range rows {
		for m := 0; m < M; m++ {
			data[m][t] = row[m]
		}
	}
	st.frame = mts.NodeFrame{Node: st.node, Metrics: st.metrics, Data: data, Start: start, Step: step}
	return &st.frame
}

// monMetrics holds the monitor's pre-registered metric handles so the hot
// path never goes through the registry's map lock. Every handle is nil —
// a no-op — when observability is disabled.
type monMetrics struct {
	ingest       *obs.Counter
	unregistered *obs.Counter
	windows      *obs.Counter
	samples      *obs.Counter
	matchLat     *obs.Histogram
	scoreLat     *obs.Histogram
	matchedOK    *obs.Counter
	matchedMiss  *obs.Counter
	alertWarn    *obs.Counter
	alertCrit    *obs.Counter
	delivered    *obs.Counter
	dropped      *obs.Counter
	thrUpdates   *obs.Counter
	shape        *obs.Counter
	nodes        *obs.Gauge
	epoch        *obs.Gauge
	swaps        *obs.Counter
	swapPause    *obs.Histogram
}

func newMonMetrics(r *obs.Registry) monMetrics {
	return monMetrics{
		ingest:       r.Counter("nodesentry_ingest_samples_total"),
		unregistered: r.Counter("nodesentry_ingest_unregistered_total"),
		windows:      r.Counter("nodesentry_windows_scored_total"),
		samples:      r.Counter("nodesentry_samples_scored_total"),
		matchLat:     r.Histogram("nodesentry_match_latency_seconds", obs.LatencyBuckets),
		scoreLat:     r.Histogram("nodesentry_score_latency_seconds", obs.LatencyBuckets),
		matchedOK:    r.Counter("nodesentry_pattern_matches_total", "matched", "true"),
		matchedMiss:  r.Counter("nodesentry_pattern_matches_total", "matched", "false"),
		alertWarn:    r.Counter("nodesentry_alerts_total", "priority", "warning"),
		alertCrit:    r.Counter("nodesentry_alerts_total", "priority", "critical"),
		delivered:    r.Counter("nodesentry_alerts_delivered_total"),
		dropped:      r.Counter("nodesentry_alerts_dropped_total"),
		thrUpdates:   r.Counter("nodesentry_threshold_updates_total"),
		shape:        r.Counter("nodesentry_ingest_shape_mismatch_total"),
		nodes:        r.Gauge("nodesentry_nodes"),
		epoch:        r.Gauge("nodesentry_detector_epoch"),
		swaps:        r.Counter("nodesentry_detector_swaps_total"),
		swapPause:    r.Histogram("nodesentry_detector_swap_pause_seconds", obs.LatencyBuckets),
	}
}

// pooled is one checkout slot of the detector pool: a clone plus the epoch
// of the generation it belongs to, so work performed with it can be
// attributed across hot swaps.
type pooled struct {
	det   *core.Detector
	epoch int64
}

// Hooks observe the monitor's hot path. All callbacks are optional; they
// run synchronously on the ingestion goroutine — OnMatch and OnScores while
// the node's lock is held — so they must be fast, must not call back into
// the Monitor, and must not retain the scores slice (copy it). The
// lifecycle drift detector and shadow scorer are the intended consumers.
type Hooks struct {
	// OnMatch fires after each pattern match with the assigned cluster,
	// the centroid distance, and whether it fell inside the match radius.
	OnMatch func(node string, cluster int, distance float64, matched bool)
	// OnScores fires after each scored window with the per-sample
	// normalized scores; start is the window's first sample timestamp
	// (Unix seconds), so taps can place the scores on the fleet timeline.
	OnScores func(node string, cluster int, start int64, scores []float64)
	// OnAlert fires for every alert the monitor raises, including ones the
	// alert channel then drops; it runs without node locks held.
	OnAlert func(a Alert)
}

// MergeHooks composes two hook sets: each callback invokes a's then b's,
// skipping nil entries. Used by Monitor.Tap to let multiple observers
// (lifecycle manager, fleetview aggregator) share the single hook slot.
func MergeHooks(a, b Hooks) Hooks {
	out := Hooks{}
	if a.OnMatch != nil || b.OnMatch != nil {
		am, bm := a.OnMatch, b.OnMatch
		out.OnMatch = func(node string, cluster int, distance float64, matched bool) {
			if am != nil {
				am(node, cluster, distance, matched)
			}
			if bm != nil {
				bm(node, cluster, distance, matched)
			}
		}
	}
	if a.OnScores != nil || b.OnScores != nil {
		as, bs := a.OnScores, b.OnScores
		out.OnScores = func(node string, cluster int, start int64, scores []float64) {
			if as != nil {
				as(node, cluster, start, scores)
			}
			if bs != nil {
				bs(node, cluster, start, scores)
			}
		}
	}
	if a.OnAlert != nil || b.OnAlert != nil {
		aa, ba := a.OnAlert, b.OnAlert
		out.OnAlert = func(al Alert) {
			if aa != nil {
				aa(al)
			}
			if ba != nil {
				ba(al)
			}
		}
	}
	return out
}

// Monitor is the streaming detection engine.
type Monitor struct {
	cfg  Config
	pool chan pooled

	mu    sync.Mutex
	nodes map[string]*nodeState

	alerts  chan Alert
	dropped atomic.Int64
	// closeMu serializes deliver against Close so a send can never race a
	// channel close: deliver holds the read side, Close the write side.
	// SwapDetector also holds the read side while the pool is drained, so
	// SnapshotConsistent's write-side barrier freezes both alert
	// accounting and epoch changes at once.
	closeMu sync.RWMutex
	closed  bool

	// epoch is the current detector generation (1 at construction, +1 per
	// swap); seq advances on every event a consistent snapshot must not
	// tear across (alert accounting, node creation, swaps). swapMu
	// serializes swaps.
	epoch  atomic.Int64
	seq    atomic.Uint64
	swapMu sync.Mutex

	hooks atomic.Pointer[Hooks]

	// reg is nil when observability is off; met's handles are then all
	// nil no-ops. obsOn gates the timing reads (time.Now) the no-op
	// handles cannot elide.
	reg   *obs.Registry
	met   monMetrics
	obsOn bool
	log   *slog.Logger
}

// NewMonitor builds a monitor around a trained detector. The detector is
// cloned ScoringWorkers times; the original is left untouched.
func NewMonitor(det *core.Detector, cfg Config) (*Monitor, error) {
	cfg = cfg.withDefaults()
	m := &Monitor{
		cfg:    cfg,
		pool:   make(chan pooled, cfg.ScoringWorkers),
		nodes:  map[string]*nodeState{},
		alerts: make(chan Alert, cfg.AlertBuffer),
		reg:    cfg.Metrics,
		met:    newMonMetrics(cfg.Metrics),
		obsOn:  cfg.Metrics != nil,
		log:    cfg.Logger,
	}
	m.epoch.Store(1)
	m.met.epoch.Set(1)
	for i := 0; i < cfg.ScoringWorkers; i++ {
		clone, err := det.Clone()
		if err != nil {
			return nil, err
		}
		m.pool <- pooled{det: clone, epoch: 1}
	}
	return m, nil
}

// SetHooks installs (or, with a zero Hooks, clears) the observation hooks.
// Safe to call concurrently with ingestion; in-flight calls may still see
// the previous hooks. SetHooks replaces whatever was installed — observers
// that must coexist with an owner (the lifecycle manager installs hooks in
// NewManager) chain themselves afterwards with Tap instead.
func (m *Monitor) SetHooks(h Hooks) {
	m.hooks.Store(&h)
}

// Tap chains h after any hooks already installed: existing callbacks run
// first, then h's. Intended for wiring-time composition (daemon startup
// attaches the fleetview tap after the lifecycle manager's hooks); it is
// not atomic against a concurrent SetHooks/Tap, so install taps before
// ingestion starts.
func (m *Monitor) Tap(h Hooks) {
	cur := m.hooks.Load()
	if cur == nil {
		m.hooks.Store(&h)
		return
	}
	merged := MergeHooks(*cur, h)
	m.hooks.Store(&merged)
}

// Epoch returns the current detector generation.
func (m *Monitor) Epoch() int64 { return m.epoch.Load() }

// SwapDetector atomically replaces the monitor's detector with det (hot
// swap): it clones det for every pool slot, waits for in-flight scoring to
// finish, and installs the new generation. No window is dropped or scored
// twice — a window is scored by exactly one generation, and alerts carry
// the epoch that scored them. The returned duration is the pause: the time
// the pool was unavailable to ingestion (cloning happens before the pause
// begins). The old clones are discarded; the caller keeps det.
func (m *Monitor) SwapDetector(det *core.Detector) (time.Duration, error) {
	clones := make([]*core.Detector, m.cfg.ScoringWorkers)
	for i := range clones {
		c, err := det.Clone()
		if err != nil {
			return 0, err
		}
		clones[i] = c
	}
	m.swapMu.Lock()
	defer m.swapMu.Unlock()
	m.closeMu.RLock()
	defer m.closeMu.RUnlock()
	start := time.Now()
	// Drain every slot: each in-flight Ingest returns its checkout without
	// needing any lock this goroutine holds, so this always completes.
	for i := 0; i < m.cfg.ScoringWorkers; i++ {
		<-m.pool
	}
	epoch := m.epoch.Add(1)
	for _, c := range clones {
		m.pool <- pooled{det: c, epoch: epoch}
	}
	pause := time.Since(start)
	m.seq.Add(1)
	m.met.swaps.Inc()
	m.met.epoch.Set(float64(epoch))
	m.met.swapPause.Observe(pause.Seconds())
	if m.log != nil {
		m.log.Info("detector swapped", "epoch", epoch, "pause", pause)
	}
	return pause, nil
}

// Alerts returns the alert stream.
func (m *Monitor) Alerts() <-chan Alert { return m.alerts }

// Dropped reports how many alerts were discarded because the consumer fell
// behind.
func (m *Monitor) Dropped() int64 { return m.dropped.Load() }

func (m *Monitor) state(node string) *nodeState {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.nodes[node]
	if !ok {
		st = &nodeState{node: node, cluster: -1, job: mts.IdleJobID}
		if m.obsOn {
			st.thrGauge = m.reg.Gauge("nodesentry_threshold_value", "node", node)
			st.bufGauge = m.reg.Gauge("nodesentry_node_buffered", "node", node)
		}
		m.nodes[node] = st
		m.met.nodes.Set(float64(len(m.nodes)))
		m.seq.Add(1)
	}
	return st
}

// ObserveJob notifies the monitor of a job transition on a node: the
// current segment ends and a new pattern observation begins (§3.5).
func (m *Monitor) ObserveJob(node string, job int64, start int64) {
	if m.log != nil {
		m.log.Debug("job transition", "node", node, "job", job, "start", start)
	}
	st := m.state(node)
	st.mu.Lock()
	defer st.mu.Unlock()
	st.job = job
	st.jobStart = start
	st.pending = nil
	st.pendTs = nil
	st.probe = nil
	st.probeTs = nil
	st.matched = false
	st.cluster = -1
	st.consumed = 0
	st.scores = nil
	st.lastThr = 0
}

// Ingest feeds one sample (the node's full metric vector at ts). Metric
// names must be provided once via RegisterNode or inferred from the first
// dataset replay; values must follow that order.
//
//perf:hot
func (m *Monitor) Ingest(node string, ts int64, values []float64) {
	st := m.state(node)
	st.mu.Lock()
	if st.metrics == nil {
		st.mu.Unlock()
		m.met.unregistered.Inc()
		return // not registered: cannot build frames
	}
	m.met.ingest.Inc()
	st.lastIngest = ts
	// One pre-sized ownership copy: the sample is retained in the node's
	// window buffer, so it must be heap-owned, and sizing it to the
	// registered layout also conforms mis-shaped vectors (frameInto indexes
	// one column per registered metric) with NaN padding in the same pass.
	//lint:ignore hotalloc ownership copy retained in the window buffer; pooled sample arenas are the arena-refactor follow-up
	v := make([]float64, len(st.metrics))
	n := copy(v, values)
	if len(values) != len(st.metrics) {
		m.met.shape.Inc()
		for i := n; i < len(v); i++ {
			v[i] = math.NaN()
		}
	}
	if !st.matched {
		if len(st.probe) == 0 && ts > st.jobStart {
			// Joining a job already in progress (e.g. monitor started
			// mid-job): align positions with the job's true timeline.
			st.consumed = int((ts - st.jobStart) / m.cfg.Step)
		}
		//lint:ignore hotalloc pre-match probe accumulation is bounded by the match period and runs once per job segment
		st.probe = append(st.probe, v)
		//lint:ignore hotalloc same bound as the probe buffer above
		st.probeTs = append(st.probeTs, ts)
		p := <-m.pool
		need := int(p.det.MatchPeriodSec() / m.cfg.Step)
		if need < 2 {
			need = 2
		}
		if len(st.probe) >= need {
			frame := st.frameInto(st.probe, st.probeTs[0], m.cfg.Step)
			var t0 time.Time
			if m.obsOn {
				t0 = time.Now()
			}
			asg := p.det.MatchPattern(frame)
			if m.obsOn {
				m.met.matchLat.Observe(time.Since(t0).Seconds())
				if asg.Matched {
					m.met.matchedOK.Inc()
				} else {
					m.met.matchedMiss.Inc()
				}
			}
			if h := m.hooks.Load(); h != nil && h.OnMatch != nil {
				h.OnMatch(st.node, asg.Cluster, asg.Distance, asg.Matched)
			}
			st.matched = true
			st.cluster = asg.Cluster
			// The probe samples become the first pending windows.
			st.pending = st.probe
			st.pendTs = st.probeTs
			st.probe, st.probeTs = nil, nil
		}
		m.pool <- p
		if !st.matched {
			st.bufGauge.Set(float64(len(st.probe)))
			st.mu.Unlock()
			return
		}
	} else {
		//lint:ignore hotalloc amortized: the buffer is drained window-by-window below, so growth is O(1) per sample
		st.pending = append(st.pending, v)
		//lint:ignore hotalloc same amortized drain as pending above
		st.pendTs = append(st.pendTs, ts)
	}

	p := <-m.pool
	win := p.det.WindowLen()
	var emit []Alert
	for len(st.pending) >= win {
		frame := st.frameInto(st.pending[:win], st.pendTs[0], m.cfg.Step)
		var t0 time.Time
		if m.obsOn {
			t0 = time.Now()
		}
		scores := p.det.ScoreFrame(frame, st.cluster, st.consumed)
		if m.obsOn {
			m.met.scoreLat.Observe(time.Since(t0).Seconds())
			m.met.windows.Inc()
			m.met.samples.Add(int64(win))
		}
		if h := m.hooks.Load(); h != nil && h.OnScores != nil {
			h.OnScores(st.node, st.cluster, frame.Start, scores)
		}
		st.lastScored = frame.TimeAt(win - 1)
		//lint:ignore hotalloc alert path: emit stays nil on anomaly-free windows, the common case
		emit = append(emit, m.absorbScores(p.det, st, frame, scores)...)
		st.pending = st.pending[win:]
		st.pendTs = st.pendTs[win:]
		st.consumed += win
	}
	st.bufGauge.Set(float64(len(st.pending)))
	m.pool <- p
	st.mu.Unlock()
	for i := range emit {
		emit[i].Epoch = p.epoch
		m.deliver(st, emit[i])
	}
}

// absorbScores appends window scores to the node's history, applies the
// dynamic threshold, and returns alerts to deliver. Called with st locked.
func (m *Monitor) absorbScores(det *core.Detector, st *nodeState, frame *mts.NodeFrame, scores []float64) []Alert {
	winSec, k := det.OnlineParams()
	histLen := int(winSec/m.cfg.Step) * 2
	base := len(st.scores)
	//lint:ignore hotalloc amortized: the history is trimmed below, so growth is O(1) per window
	st.scores = append(st.scores, scores...)
	st.lastThr = core.KSigmaBound(st.scores, len(st.scores), m.cfg.Step, winSec, k)
	if m.obsOn {
		m.met.thrUpdates.Inc()
		st.thrGauge.Set(st.lastThr)
	}
	var out []Alert
	// Copy-on-alert: frame is the node's scratch, so diagnosis gets a
	// private clone, made lazily on the first alert of the window.
	// Anomaly-free windows — the common case — copy nothing.
	var diagFrame *mts.NodeFrame
	for i := range scores {
		gi := base + i
		// Only the new window's indices are thresholded; the bound reads
		// the same history KSigmaThreshold would over st.scores.
		anomalous := st.scores[gi] > core.KSigmaBound(st.scores, gi, m.cfg.Step, winSec, k)
		if !anomalous {
			continue
		}
		ts := frame.TimeAt(i)
		if ts-st.lastAlert < m.cfg.CooldownSec {
			continue
		}
		st.lastAlert = ts
		prio := Warning
		if exceedFactor(st.scores, gi, int(winSec/m.cfg.Step)) >= m.cfg.CriticalFactor {
			prio = Critical
		}
		if diagFrame == nil {
			// At most one clone per alerting window, which is rare by
			// construction; anomaly-free windows never pay it.
			diagFrame = frame.Clone()
		}
		//lint:ignore hotalloc alert path: anomalies past threshold and cooldown are rare by construction
		out = append(out, Alert{
			Node:      st.node,
			Time:      ts,
			Job:       st.job,
			Score:     scores[i],
			Priority:  prio,
			Diagnosis: diagnose.Alarm(det, diagFrame, i, 3),
		})
	}
	// Trim history so memory stays bounded on long-running nodes.
	if len(st.scores) > 4*histLen && histLen > 0 {
		//lint:ignore hotalloc runs once per 2×histLen windows; the copy is what bounds steady-state memory
		st.scores = append([]float64(nil), st.scores[len(st.scores)-2*histLen:]...)
	}
	return out
}

// exceedFactor measures how far score[i] sits above the trailing window
// mean (1 = at the mean).
func exceedFactor(scores []float64, i, w int) float64 {
	lo := i - w
	if lo < 0 {
		lo = 0
	}
	if i <= lo {
		return 1
	}
	mean := 0.0
	for _, v := range scores[lo:i] {
		mean += v
	}
	mean /= float64(i - lo)
	if mean <= 0 {
		return 1
	}
	return scores[i] / mean
}

func (m *Monitor) deliver(st *nodeState, a Alert) {
	if a.Priority == Critical {
		m.met.alertCrit.Inc()
	} else {
		m.met.alertWarn.Inc()
	}
	if h := m.hooks.Load(); h != nil && h.OnAlert != nil {
		h.OnAlert(a)
	}
	m.closeMu.RLock()
	defer m.closeMu.RUnlock()
	// The seq bump is the last mutation, so a consistent snapshot that saw
	// an unchanged seq either missed this delivery entirely or fell back to
	// the invariant check.
	defer m.seq.Add(1)
	if m.closed {
		// Raised after shutdown began: account it as dropped rather than
		// panicking on the closed channel.
		m.dropped.Add(1)
		st.dropped.Add(1)
		m.met.dropped.Inc()
		return
	}
	select {
	case m.alerts <- a:
		m.met.delivered.Inc()
	default:
		m.dropped.Add(1)
		st.dropped.Add(1)
		m.met.dropped.Inc()
		if m.log != nil {
			//lint:ignore hotalloc slog boxing on the dropped-alert path only, which already signals an overloaded consumer
			m.log.Warn("alert dropped: consumer behind", "node", a.Node, "time", a.Time, "score", a.Score)
		}
	}
}

// RegisterNode declares a node's metric layout before ingestion.
func (m *Monitor) RegisterNode(node string, metrics []string) {
	st := m.state(node)
	st.mu.Lock()
	st.metrics = append([]string(nil), metrics...)
	st.mu.Unlock()
}

// NodeStatus is a point-in-time view of one node's streaming state.
type NodeStatus struct {
	Node string
	// Job is the job currently running on the node (mts.IdleJobID when idle).
	Job int64
	// Matched reports whether the post-transition observation window has
	// completed and the node's pattern has been assigned a cluster.
	Matched bool
	// Cluster is the matched cluster index (-1 before matching).
	Cluster int
	// Consumed counts samples scored since the job started.
	Consumed int
	// Buffered counts samples waiting for the next full scoring window.
	Buffered int
	// Dropped counts this node's alerts discarded because the consumer
	// fell behind; summing it across nodes reconciles with the monitor's
	// global Dropped() — the cross-node operator invariant ROADMAP asks
	// Snapshot to answer.
	Dropped int64
	// ScoreLagSec is how far scoring trails ingestion on this node: the
	// newest ingested timestamp minus the newest scored timestamp (0
	// before the first scored window or when fully caught up).
	ScoreLagSec int64
	// Threshold is the current dynamic k-sigma bound on this node's
	// scores (0 before the first scored window). Diagnostic: the same
	// value the per-node threshold gauge exports, surfaced here so fleet
	// views need no registry scrape to pair scores with their bound.
	Threshold float64
}

// Snapshot returns the streaming state of every node the monitor has seen,
// sorted by node name. It is safe to call concurrently with Ingest and
// ObserveJob; each node is captured atomically under its own lock, so the
// snapshot is per-node consistent (not a global barrier). For a globally
// consistent view, use SnapshotConsistent.
func (m *Monitor) Snapshot() []NodeStatus { return m.collect() }

// SnapshotView is a globally consistent point-in-time view of the monitor.
// It upholds the cross-node invariant the per-node Snapshot cannot: the sum
// of per-node Dropped counts equals the global Dropped count, and Epoch is
// the detector generation in effect for the whole capture.
type SnapshotView struct {
	// Epoch is the detector generation (see SwapDetector).
	Epoch int64
	// Seq is the monitor's sequence stamp at capture: it advances on every
	// alert accounting event, node registration, and swap, so two views
	// with equal Seq describe the same global state.
	Seq uint64
	// Dropped is the global count of alerts discarded because the consumer
	// fell behind; it equals the sum of Nodes[i].Dropped.
	Dropped int64
	// Nodes is the per-node state, sorted by node name.
	Nodes []NodeStatus
}

// SnapshotConsistent captures a globally consistent SnapshotView. It first
// tries optimistically — collect between two sequence reads and validate
// the dropped-count invariant — and only if concurrent activity keeps
// tearing the view does it take the write side of closeMu, briefly pausing
// alert delivery and swaps (never scoring) while it reads. The swap
// handoff's epoch stamping makes the per-epoch attribution exact.
func (m *Monitor) SnapshotConsistent() SnapshotView {
	for attempt := 0; attempt < 8; attempt++ {
		s1 := m.seq.Load()
		v := SnapshotView{Epoch: m.epoch.Load(), Seq: s1}
		v.Nodes = m.collect()
		v.Dropped = m.dropped.Load()
		if m.seq.Load() == s1 && m.epoch.Load() == v.Epoch && droppedInvariant(v) {
			return v
		}
	}
	// Barrier: the write lock excludes deliver (alert accounting) and
	// SwapDetector (epoch changes); node creation may still interleave but
	// a node created now has zero dropped alerts, preserving the invariant.
	m.closeMu.Lock()
	defer m.closeMu.Unlock()
	v := SnapshotView{Epoch: m.epoch.Load(), Seq: m.seq.Load()}
	v.Nodes = m.collect()
	v.Dropped = m.dropped.Load()
	return v
}

// droppedInvariant reports whether the view's per-node dropped counts
// reconcile with its global count.
func droppedInvariant(v SnapshotView) bool {
	var sum int64
	for _, n := range v.Nodes {
		sum += n.Dropped
	}
	return sum == v.Dropped
}

func (m *Monitor) collect() []NodeStatus {
	m.mu.Lock()
	states := make([]*nodeState, 0, len(m.nodes))
	for _, st := range m.nodes {
		states = append(states, st)
	}
	m.mu.Unlock()
	out := make([]NodeStatus, 0, len(states))
	for _, st := range states {
		st.mu.Lock()
		buffered := len(st.pending) + len(st.probe)
		lag := int64(0)
		if st.lastScored > 0 && st.lastIngest > st.lastScored {
			lag = st.lastIngest - st.lastScored
		}
		out = append(out, NodeStatus{
			Node:        st.node,
			Job:         st.job,
			Matched:     st.matched,
			Cluster:     st.cluster,
			Consumed:    st.consumed,
			Buffered:    buffered,
			Dropped:     st.dropped.Load(),
			ScoreLagSec: lag,
			Threshold:   st.lastThr,
		})
		st.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// Close closes the alert channel. It is idempotent and safe to call
// concurrently with Ingest/ObserveJob: in-flight deliveries observe the
// closed flag under closeMu and are counted as dropped instead of
// panicking on a closed-channel send. Samples ingested after Close are
// still scored; only their alerts are discarded.
func (m *Monitor) Close() {
	m.closeMu.Lock()
	defer m.closeMu.Unlock()
	if m.closed {
		return
	}
	m.closed = true
	close(m.alerts)
}

// sortAlerts orders alerts by time then node, for deterministic reporting.
func sortAlerts(alerts []Alert) {
	sort.Slice(alerts, func(i, j int) bool {
		if alerts[i].Time != alerts[j].Time {
			return alerts[i].Time < alerts[j].Time
		}
		return alerts[i].Node < alerts[j].Node
	})
}
