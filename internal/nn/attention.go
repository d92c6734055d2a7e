package nn

import (
	"fmt"
	"math"
	"math/rand"

	"nodesentry/internal/mat"
)

// MultiHeadAttention is standard multi-head self-attention over a token
// sequence: softmax(QKᵀ/√dk)V per head, heads concatenated and projected.
// The model dimension must be divisible by the head count.
type MultiHeadAttention struct {
	Heads int
	Dim   int // model dimension
	dk    int

	Wq, Wk, Wv, Wo *Param

	// forward caches
	x       *mat.Matrix
	q, k, v *mat.Matrix // [T × Dim], heads laid out contiguously
	attn    []*mat.Matrix
	concat  *mat.Matrix
	arena   *mat.Arena
}

// NewMultiHeadAttention builds an attention layer with the given model
// dimension and head count.
func NewMultiHeadAttention(dim, heads int, rng *rand.Rand) (*MultiHeadAttention, error) {
	if heads < 1 || dim%heads != 0 {
		return nil, fmt.Errorf("nn: attention dim %d must be divisible by heads %d", dim, heads)
	}
	a := &MultiHeadAttention{
		Heads: heads, Dim: dim, dk: dim / heads,
		Wq: NewParam(dim, dim), Wk: NewParam(dim, dim),
		Wv: NewParam(dim, dim), Wo: NewParam(dim, dim),
		// The per-head cache has a fixed length; allocating it here keeps
		// Forward allocation-free at the slice level.
		attn: make([]*mat.Matrix, heads),
	}
	for _, p := range []*Param{a.Wq, a.Wk, a.Wv, a.Wo} {
		p.XavierInit(rng)
	}
	return a, nil
}

// headViewInto copies the [T × dk] sub-matrix of m holding head h into dst.
func (a *MultiHeadAttention) headViewInto(dst, m *mat.Matrix, h int) {
	for i := 0; i < m.Rows; i++ {
		copy(dst.Row(i), m.Row(i)[h*a.dk:(h+1)*a.dk])
	}
}

// scatterHead writes src into head h's columns of dst; add accumulates
// instead of copying.
func (a *MultiHeadAttention) scatterHead(dst *mat.Matrix, src *mat.Matrix, h int, add bool) {
	for i := 0; i < src.Rows; i++ {
		d := dst.Row(i)[h*a.dk : (h+1)*a.dk]
		s := src.Row(i)
		if add {
			for j := range d {
				d[j] += s[j]
			}
		} else {
			copy(d, s)
		}
	}
}

// Forward implements Layer.
//
//perf:hot
func (a *MultiHeadAttention) Forward(x *mat.Matrix) *mat.Matrix {
	a.x = x
	T := x.Rows
	a.q = alloc(a.arena, T, a.Dim)
	mat.MulInto(a.q, x, a.Wq.W)
	a.k = alloc(a.arena, T, a.Dim)
	mat.MulInto(a.k, x, a.Wk.W)
	a.v = alloc(a.arena, T, a.Dim)
	mat.MulInto(a.v, x, a.Wv.W)
	a.concat = alloc(a.arena, T, a.Dim)
	scale := 1 / math.Sqrt(float64(a.dk))
	for h := 0; h < a.Heads; h++ {
		qh := alloc(a.arena, T, a.dk)
		a.headViewInto(qh, a.q, h)
		kh := alloc(a.arena, T, a.dk)
		a.headViewInto(kh, a.k, h)
		vh := alloc(a.arena, T, a.dk)
		a.headViewInto(vh, a.v, h)
		scores := alloc(a.arena, T, T)
		mat.MulTInto(scores, qh, kh)
		mat.Scale(scores, scale)
		SoftmaxRowsInto(scores, scores)
		a.attn[h] = scores
		out := alloc(a.arena, T, a.dk)
		mat.MulInto(out, scores, vh)
		a.scatterHead(a.concat, out, h, false)
	}
	y := alloc(a.arena, T, a.Dim)
	mat.MulInto(y, a.concat, a.Wo.W)
	return y
}

// Backward implements Layer.
func (a *MultiHeadAttention) Backward(grad *mat.Matrix) *mat.Matrix {
	// Output projection.
	wog := alloc(a.arena, a.Wo.G.Rows, a.Wo.G.Cols)
	mat.TMulInto(wog, a.concat, grad)
	mat.AddInPlace(a.Wo.G, wog)
	dConcat := alloc(a.arena, grad.Rows, a.Dim)
	mat.MulTInto(dConcat, grad, a.Wo.W)

	T := a.q.Rows
	dq := alloc(a.arena, T, a.Dim)
	dk := alloc(a.arena, T, a.Dim)
	dv := alloc(a.arena, T, a.Dim)
	scale := 1 / math.Sqrt(float64(a.dk))
	for h := 0; h < a.Heads; h++ {
		attn := a.attn[h]
		dOut := alloc(a.arena, T, a.dk)
		a.headViewInto(dOut, dConcat, h)
		qh := alloc(a.arena, T, a.dk)
		a.headViewInto(qh, a.q, h)
		kh := alloc(a.arena, T, a.dk)
		a.headViewInto(kh, a.k, h)
		vh := alloc(a.arena, T, a.dk)
		a.headViewInto(vh, a.v, h)

		dAttn := alloc(a.arena, T, T)
		mat.MulTInto(dAttn, dOut, vh) // [T×T]
		dVh := alloc(a.arena, T, a.dk)
		mat.TMulInto(dVh, attn, dOut) // [T×dk]
		dScores := alloc(a.arena, attn.Rows, attn.Cols)
		for i := 0; i < attn.Rows; i++ {
			SoftmaxBackwardRow(dScores.Row(i), attn.Row(i), dAttn.Row(i))
		}
		mat.Scale(dScores, scale)
		dQh := alloc(a.arena, T, a.dk)
		mat.MulInto(dQh, dScores, kh) // [T×dk]
		dKh := alloc(a.arena, T, a.dk)
		mat.TMulInto(dKh, dScores, qh) // [T×dk]

		a.scatterHead(dq, dQh, h, true)
		a.scatterHead(dk, dKh, h, true)
		a.scatterHead(dv, dVh, h, true)
	}
	for _, wp := range [3]struct {
		p *Param
		d *mat.Matrix
	}{{a.Wq, dq}, {a.Wk, dk}, {a.Wv, dv}} {
		g := alloc(a.arena, wp.p.G.Rows, wp.p.G.Cols)
		mat.TMulInto(g, a.x, wp.d)
		mat.AddInPlace(wp.p.G, g)
	}

	dx := alloc(a.arena, T, a.Dim)
	mat.MulTInto(dx, dq, a.Wq.W)
	tmp := alloc(a.arena, T, a.Dim)
	mat.MulTInto(tmp, dk, a.Wk.W)
	mat.AddInPlace(dx, tmp)
	mat.MulTInto(tmp, dv, a.Wv.W)
	mat.AddInPlace(dx, tmp)
	return dx
}

// Params implements Layer.
func (a *MultiHeadAttention) Params() []*Param {
	return []*Param{a.Wq, a.Wk, a.Wv, a.Wo}
}
