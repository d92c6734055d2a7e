package core

import (
	"nodesentry/internal/mat"
	"nodesentry/internal/mts"
	"nodesentry/internal/preprocess"
)

// scoreScratch is the detector's grow-once buffer set for scoring
// (scoreWindow's window matrix, and the streaming ScoreFrame / MatchPattern
// preprocessing). Reusing it across calls keeps steady-state scoring free
// of per-window matrices and of the cold Preprocess path's Clone +
// Reduction.Apply allocations.
// Detector methods are not concurrency-safe on one instance — the runtime
// Monitor hands out pooled clones with exclusive checkout — so plain reuse
// is sound.
type scoreScratch struct {
	raw       mts.NodeFrame
	red       mts.NodeFrame
	x         *mat.Matrix
	positions []int
}

// growMat reshapes m to rows×cols in place when its storage is big
// enough, else returns a fresh matrix. Contents are undefined.
func growMat(m *mat.Matrix, rows, cols int) *mat.Matrix {
	if m == nil || cap(m.Data) < rows*cols {
		return mat.New(rows, cols)
	}
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:rows*cols]
	return m
}

// preprocessInto is Preprocess with detector-owned scratch: the raw frame
// is copied into a reusable buffer (Clean repairs in place), reduced with
// Reduction.ApplyInto, and standardized. The returned frame is valid until
// the next preprocessInto call. Per-series cleaning and per-row reduction/
// standardization are order-independent, so the result is byte-identical
// to the allocating Preprocess.
func (d *Detector) preprocessInto(frame *mts.NodeFrame) *mts.NodeFrame {
	s := &d.scratch
	T := frame.Len()
	if cap(s.raw.Data) < len(frame.Data) {
		s.raw.Data = make([][]float64, len(frame.Data))
	}
	s.raw.Data = s.raw.Data[:len(frame.Data)]
	for m, row := range frame.Data {
		s.raw.Data[m] = mat.GrowFloats(s.raw.Data[m], T)
		copy(s.raw.Data[m], row)
	}
	s.raw.Node = frame.Node
	s.raw.Metrics = frame.Metrics
	s.raw.Start = frame.Start
	s.raw.Step = frame.Step
	for _, row := range s.raw.Data {
		preprocess.CleanSeries(row)
	}

	nOut := d.red.NumOutput()
	if cap(s.red.Data) < nOut {
		s.red.Data = make([][]float64, nOut)
	}
	s.red.Data = s.red.Data[:nOut]
	for i := range s.red.Data {
		s.red.Data[i] = mat.GrowFloats(s.red.Data[i], T)
	}
	if s.red.Metrics == nil {
		s.red.Metrics = d.red.OutputNames()
	}
	d.red.ApplyInto(&s.red, &s.raw)
	d.std.Apply(&s.red)
	return &s.red
}

// windowInto packs preprocessed frame rows [lo, hi) into the scratch
// window matrix, with job-aligned positions pos, pos+1, ….
func (s *scoreScratch) windowInto(f *mts.NodeFrame, lo, hi, pos int) {
	n := hi - lo
	s.x = growMat(s.x, n, f.NumMetrics())
	s.positions = mat.GrowInts(s.positions, n)
	for t := 0; t < n; t++ {
		row := s.x.Row(t)
		for m := range f.Data {
			row[m] = f.Data[m][lo+t]
		}
		s.positions[t] = pos + t
	}
}
