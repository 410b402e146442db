package check

import "math"

const unit64 = 0x1p-53

// Unit returns the unit roundoff u of E: 2⁻⁵³ for float64, 2⁻²⁴ for float32.
func Unit[E Elem]() float64 {
	var z E
	if _, ok := any(z).(float32); ok {
		return 0x1p-24
	}
	return unit64
}

// Algo holds the error parameters of one level of a bilinear algorithm
// ⟦U,V,W⟧ with partition ⟨m̃,k̃,ñ⟩ (Higham, "Accuracy and Stability of
// Numerical Algorithms", §23.2.2; Ballard, Benson, Druinsky, Lipshitz and
// Schwartz, "Improving the numerical stability of fast matrix
// multiplication", 2016).
type Algo struct {
	// Growth is e = maxₗ Σᵣ |Wₗᵣ|·aᵣ·bᵣ with aᵣ = Σᵢ|Uᵢᵣ| and bᵣ = Σⱼ|Vⱼᵣ|:
	// how much larger than ‖A‖·‖B‖ the products feeding one C block may be.
	// Strassen has e = 12.
	Growth float64
	// Split is k̃, the factor by which one level shortens the inner
	// dimension.
	Split int
	// Adds is maxᵣ(αᵣ + βᵣ) + maxₗ ωₗ, the most roundings the operand sums
	// (αᵣ, βᵣ non-zeros per column of U and V) and the C update (ωₗ
	// non-zeros per row of W) put on one term.
	Adds int
}

// AlgoOf derives an algorithm's error parameters from its coefficients:
// u is (m̃k̃)×R, v is (k̃ñ)×R, w is (m̃ñ)×R, row-major as [row][term].
func AlgoOf(u, v, w [][]float64, kSplit int) Algo {
	r := len(u[0])
	a, b := make([]float64, r), make([]float64, r)
	maxAB := 0
	for t := 0; t < r; t++ {
		nz := 0
		for _, row := range u {
			if row[t] != 0 {
				a[t] += math.Abs(row[t])
				nz++
			}
		}
		for _, row := range v {
			if row[t] != 0 {
				b[t] += math.Abs(row[t])
				nz++
			}
		}
		maxAB = max(maxAB, nz)
	}
	al := Algo{Split: kSplit}
	maxW := 0
	for _, row := range w {
		var e float64
		nz := 0
		for t, c := range row {
			if c != 0 {
				e += math.Abs(c) * a[t] * b[t]
				nz++
			}
		}
		al.Growth = math.Max(al.Growth, e)
		maxW = max(maxW, nz)
	}
	al.Adds = maxAB + maxW
	return al
}

// Phi returns φ_L(q), the first-order constant of the max-norm bound
//
//	‖Ĉ − A·B‖ ≤ φ_L(q)·u·‖A‖·‖B‖
//
// for a product with inner dimension q computed by up to L levels of any
// algorithm in family over a classical base case. It follows the standard
// recursion: a classical dot product of length q has error at most
// q·u·Σ|aₚ||bₚ| ≤ q²·u·‖A‖·‖B‖, so φ₀(q) = q²; one level forms each operand
// sum with at most αᵣ (βᵣ) roundings, multiplies the sums — whose entries are
// at most aᵣ‖A‖ and bᵣ‖B‖ — recursively with inner dimension q/k̃, and folds
// at most ωₗ weighted products into each C block, giving
//
//	φ_L(q) = max over the family of e·(φ_{L−1}(q/k̃) + (q/k̃)·s)
//
// with e = Growth and s = Adds. The maximum over levels 0…L covers plans
// that stop early, and sharding, K-split folding and peeling only add
// classical pieces whose constants the same bound dominates.
func Phi(q, levels int, family []Algo) float64 {
	fq := float64(q)
	best := fq * fq
	if levels == 0 {
		return best
	}
	for _, al := range family {
		sub := (q + al.Split - 1) / al.Split
		v := al.Growth * (Phi(sub, levels-1, family) + float64(sub)*float64(al.Adds))
		best = math.Max(best, v)
	}
	return best
}
