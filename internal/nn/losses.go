package nn

import "nodesentry/internal/mat"

// WMSE computes the Weighted Mean Squared Error of equation (5):
// (1/M) Σ_m w_m (x_m - x̂_m)², averaged over tokens, together with the
// gradient with respect to the reconstruction. weights may be nil (plain
// MSE). The paper derives w from the per-metric Mean Absolute Change of
// each cluster's training data so that stable metrics — where a deviation
// is more alarming — weigh more.
func WMSE(recon, target *mat.Matrix, weights []float64) (loss float64, grad *mat.Matrix) {
	grad = mat.New(recon.Rows, recon.Cols)
	n := float64(recon.Rows * recon.Cols)
	if n == 0 {
		return 0, grad
	}
	for i := 0; i < recon.Rows; i++ {
		rr := recon.Row(i)
		tr := target.Row(i)
		gr := grad.Row(i)
		for j := range rr {
			w := 1.0
			if weights != nil {
				w = weights[j]
			}
			d := rr[j] - tr[j]
			loss += w * d * d
			gr[j] = 2 * w * d / n
		}
	}
	return loss / n, grad
}

// MSE is WMSE with uniform weights.
func MSE(recon, target *mat.Matrix) (float64, *mat.Matrix) {
	return WMSE(recon, target, nil)
}

// MACWeights converts per-metric Mean Absolute Change values into WMSE
// weights (equation (6) context): weights are inversely proportional to
// MAC — the less a metric normally changes, the more a reconstruction
// deviation on it matters — normalized to mean 1 so the loss scale is
// comparable across clusters. A floor keeps near-constant metrics from
// dominating.
func MACWeights(macs []float64) []float64 {
	if len(macs) == 0 {
		return nil
	}
	const floor = 0.05
	w := make([]float64, len(macs))
	sum := 0.0
	for i, m := range macs {
		if m < floor {
			m = floor
		}
		w[i] = 1 / m
		sum += w[i]
	}
	mean := sum / float64(len(w))
	for i := range w {
		w[i] /= mean
	}
	return w
}

// ReconErrors returns the per-token weighted squared reconstruction error —
// NodeSentry's anomaly score stream for a window.
func ReconErrors(recon, target *mat.Matrix, weights []float64) []float64 {
	out := make([]float64, recon.Rows)
	ReconErrorsInto(out, recon, target, weights)
	return out
}

// ReconErrorsInto is ReconErrors with a caller-owned destination of length
// recon.Rows (the detector's window scorer writes straight into its
// caller's score slice).
func ReconErrorsInto(dst []float64, recon, target *mat.Matrix, weights []float64) {
	m := float64(recon.Cols)
	for i := 0; i < recon.Rows; i++ {
		rr := recon.Row(i)
		tr := target.Row(i)
		s := 0.0
		for j := range rr {
			w := 1.0
			if weights != nil {
				w = weights[j]
			}
			d := rr[j] - tr[j]
			s += w * d * d
		}
		dst[i] = s / m
	}
}
