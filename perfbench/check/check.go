// Package check verifies a computed C = C0 + A·B without trusting the
// program that produced it. It shares no code with the library under test:
// the reference quantities are computed here in float64 with error-free
// transformations (TwoSum, TwoProduct via FMA), and the tolerance comes from
// the normwise first-order error analysis of bilinear fast matrix
// multiplication (see Phi), not from any stored output.
//
// Three checks run on every result:
//
//   - a Freivalds projection over the whole result: Ĉ·x against
//     C0·x + A·(B·x) for a seeded ±1 vector x;
//   - exact dot products for a seeded sample of cells and for every cell of
//     a few seeded rows;
//   - for inputs carrying a non-finite entry, the class (finite, NaN, +Inf,
//     −Inf) of every cell, against the class the classical product must
//     produce.
package check

import (
	"fmt"
	"math"
	"math/rand"
)

// Elem is the element type set the checker accepts.
type Elem interface{ float32 | float64 }

// Mat is a row-major matrix view: element (i, j) is Data[i*Stride+j].
type Mat[E Elem] struct {
	Rows, Cols, Stride int
	Data               []E
}

func (m Mat[E]) at(i, j int) float64 { return float64(m.Data[i*m.Stride+j]) }

// Class is the IEEE class of a value as the checker distinguishes it.
type Class uint8

// The value classes.
const (
	Finite Class = iota
	NaN
	PosInf
	NegInf
)

func (c Class) String() string {
	return [...]string{"finite", "NaN", "+Inf", "-Inf"}[c]
}

// ClassOf classifies v.
func ClassOf(v float64) Class {
	switch {
	case v != v:
		return NaN
	case math.IsInf(v, 1):
		return PosInf
	case math.IsInf(v, -1):
		return NegInf
	}
	return Finite
}

// Lambda is the multiple of ‖e‖₂ the projection may reach before it is
// rejected. x has independent ±1 entries the program never sees, so by
// Hoeffding's inequality |Σⱼ eⱼxⱼ| > λ‖e‖₂ has probability at most
// 2·exp(−λ²/2) ≈ 2.5e-14 for any error vector e the program produced.
const Lambda = 8

// ExactRows is how many seeded whole rows of every result get an exact dot
// product in every cell. Where E is close to the size of the product
// (float32 with k in the thousands) the projection's threshold λ·√n·E
// exceeds the projection of the whole product, so these rows are what
// catches an error spread over the result, such as a dropped K-slab.
const ExactRows = 2

// Options configure Prepare.
type Options struct {
	// Levels is the most recursion levels a served plan may use; the bound
	// grows with it (see Phi).
	Levels int
	// Family holds the error parameters of every algorithm a level may use.
	Family []Algo
	// Samples is how many single cells get an exact dot product.
	Samples int
	// Seed fixes x, the sampled cells and the exact rows.
	Seed int64
}

// Cell is one exactly computed cell with its expected value and class.
type Cell struct {
	I, J  int
	Want  float64
	Class Class
}

// Ref holds everything Verify needs, computed from the inputs before the
// product is taken, so verification costs O(m·n).
type Ref struct {
	M, K, N int
	// CellTol is the per-cell bound E on |Ĉᵢⱼ − (C0 + A·B)ᵢⱼ|.
	CellTol float64
	// Cells are the sampled cells followed by every cell of the exact rows.
	Cells []Cell

	x        []float64
	z        []float64 // (C0 + A·B)·x
	rowScale []float64 // (|A|·(|B|·|x|) + |C0|·|x|)ᵢ, for the projection's own rounding
	// nonFinite maps cell index i*N+j to its expected class for every cell
	// the classical product makes non-finite; nil when the inputs are
	// finite.
	nonFinite map[int]Class
}

// NonFinite reports whether the inputs carry a non-finite entry.
func (r *Ref) NonFinite() bool { return r.nonFinite != nil }

// Report is the outcome of one Verify.
type Report struct {
	// WrongClass counts cells whose class differs from the classical
	// product's.
	WrongClass int
	// BadRows counts rows whose projection exceeds its tolerance.
	BadRows int
	// BadCells counts exact cells (sampled or in an exact row) outside
	// CellTol.
	BadCells int
	// Worst is the largest error-to-tolerance ratio seen (≤ 1 passes).
	Worst float64
}

// OK reports whether every check passed.
func (r Report) OK() bool { return r.WrongClass == 0 && r.BadRows == 0 && r.BadCells == 0 }

func (r Report) String() string {
	if r.OK() {
		return fmt.Sprintf("ok (worst %.3g of bound)", r.Worst)
	}
	return fmt.Sprintf("wrong-class cells %d, bad projection rows %d, bad exact cells %d, worst %.3g of bound",
		r.WrongClass, r.BadRows, r.BadCells, r.Worst)
}

// Prepare computes the reference for C = C0 + A·B, where C0 is the value C
// holds before the product is added.
func Prepare[E Elem](a, b, c0 Mat[E], opt Options) *Ref {
	m, k, n := a.Rows, a.Cols, b.Cols
	if b.Rows != k || c0.Rows != m || c0.Cols != n {
		panic(fmt.Sprintf("check: dims C(%d×%d) += A(%d×%d)·B(%d×%d)", c0.Rows, c0.Cols, m, k, b.Rows, n))
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	r := &Ref{M: m, K: k, N: n}
	normA, badRowsA := finiteNorm(a, false)
	normB, badColsB := finiteNorm(b, true)
	normC, _ := finiteNorm(c0, false)
	r.CellTol = Unit[E]() * ((Phi(k, opt.Levels, opt.Family)+float64(k))*normA*normB + normC)

	if len(badRowsA) > 0 || len(badColsB) > 0 {
		r.nonFinite = make(map[int]Class)
		for _, i := range badRowsA {
			for j := 0; j < n; j++ {
				if cl := classicalClass(a, b, c0, i, j); cl != Finite {
					r.nonFinite[i*n+j] = cl
				}
			}
		}
		for _, j := range badColsB {
			for i := 0; i < m; i++ {
				if cl := classicalClass(a, b, c0, i, j); cl != Finite {
					r.nonFinite[i*n+j] = cl
				}
			}
		}
	} else {
		r.x = make([]float64, n)
		absX := make([]float64, n)
		for j := range r.x {
			r.x[j] = float64(2*rng.Intn(2) - 1)
			absX[j] = 1
		}
		bx := matVec(b, r.x)
		absBx := matVecAbs(b, absX)
		r.z = make([]float64, m)
		r.rowScale = make([]float64, m)
		for i := 0; i < m; i++ {
			var acc dd
			var scale float64
			for p := 0; p < k; p++ {
				v := a.at(i, p)
				acc.addProd(v, bx[p])
				scale += math.Abs(v) * absBx[p]
			}
			for j := 0; j < n; j++ {
				v := c0.at(i, j)
				acc.addProd(v, r.x[j])
				scale += math.Abs(v)
			}
			r.z[i] = acc.value()
			r.rowScale[i] = scale
		}
	}

	for s := 0; s < opt.Samples; s++ {
		i, j := rng.Intn(m), rng.Intn(n)
		cl := classicalClass(a, b, c0, i, j)
		c := Cell{I: i, J: j, Class: cl}
		if cl == Finite {
			c.Want = exactCell(a, b, c0, i, j)
		}
		r.Cells = append(r.Cells, c)
	}
	for _, i := range rng.Perm(m)[:min(ExactRows, m)] {
		for j, want := range exactRow(a, b, c0, i) {
			c := Cell{I: i, J: j, Want: want}
			if r.nonFinite != nil {
				c.Class = classicalClass(a, b, c0, i, j)
			}
			r.Cells = append(r.Cells, c)
		}
	}
	return r
}

// Verify checks a computed C against the reference.
func Verify[E Elem](r *Ref, c Mat[E]) Report {
	if c.Rows != r.M || c.Cols != r.N {
		panic(fmt.Sprintf("check: result is %d×%d, reference %d×%d", c.Rows, c.Cols, r.M, r.N))
	}
	var rep Report
	within := func(err, tol float64) bool {
		ratio := err / tol
		if ratio != ratio {
			ratio = math.Inf(1)
		}
		rep.Worst = math.Max(rep.Worst, ratio)
		return ratio <= 1
	}
	if r.nonFinite != nil {
		for i := 0; i < r.M; i++ {
			for j := 0; j < r.N; j++ {
				want, ok := r.nonFinite[i*r.N+j]
				if !ok {
					want = Finite
				}
				if ClassOf(c.at(i, j)) != want {
					rep.WrongClass++
				}
			}
		}
	} else {
		projTol := Lambda * math.Sqrt(float64(r.N)) * r.CellTol
		for i := 0; i < r.M; i++ {
			var acc dd
			var abs float64
			for j := 0; j < r.N; j++ {
				v := c.at(i, j)
				if ClassOf(v) != Finite {
					rep.WrongClass++
				}
				acc.addProd(v, r.x[j])
				abs += math.Abs(v)
			}
			tol := projTol + 8*unit64*(abs+r.rowScale[i])
			if !within(math.Abs(acc.value()-r.z[i]), tol) {
				rep.BadRows++
			}
		}
	}
	for _, cell := range r.Cells {
		got := c.at(cell.I, cell.J)
		if cell.Class != Finite {
			continue // counted by the class scan above
		}
		if !within(math.Abs(got-cell.Want), r.CellTol+4*unit64*math.Abs(cell.Want)) {
			rep.BadCells++
		}
	}
	return rep
}

// finiteNorm returns the largest |entry| over the finite entries of m, and
// the rows (or columns, when byCol) holding a non-finite entry.
func finiteNorm[E Elem](m Mat[E], byCol bool) (float64, []int) {
	var norm float64
	var bad []int
	seen := make(map[int]bool)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			v := m.at(i, j)
			if ClassOf(v) != Finite {
				idx := i
				if byCol {
					idx = j
				}
				if !seen[idx] {
					seen[idx] = true
					bad = append(bad, idx)
				}
				continue
			}
			norm = math.Max(norm, math.Abs(v))
		}
	}
	return norm, bad
}

// classicalClass is the class of (C0 + A·B)ᵢⱼ as the classical dot product
// produces it: a NaN term, an Inf·0 term, or Inf terms of both signs make
// NaN; otherwise any Inf term decides the sign. Finite inputs bounded well
// below overflow stay finite.
func classicalClass[E Elem](a, b, c0 Mat[E], i, j int) Class {
	var nan, pos, neg bool
	note := func(cl Class) {
		switch cl {
		case NaN:
			nan = true
		case PosInf:
			pos = true
		case NegInf:
			neg = true
		}
	}
	note(ClassOf(c0.at(i, j)))
	for p := 0; p < a.Cols; p++ {
		x, y := a.at(i, p), b.at(p, j)
		cx, cy := ClassOf(x), ClassOf(y)
		switch {
		case cx == Finite && cy == Finite:
		case cx == NaN || cy == NaN:
			nan = true
		case x == 0 || y == 0:
			nan = true // Inf·0
		default:
			note(ClassOf(x * y))
		}
	}
	switch {
	case nan || (pos && neg):
		return NaN
	case pos:
		return PosInf
	case neg:
		return NegInf
	}
	return Finite
}

// exactCell returns (C0 + A·B)ᵢⱼ in double-double, rounded once.
func exactCell[E Elem](a, b, c0 Mat[E], i, j int) float64 {
	var acc dd
	acc.add(c0.at(i, j))
	for p := 0; p < a.Cols; p++ {
		acc.addProd(a.at(i, p), b.at(p, j))
	}
	return acc.value()
}

// exactRow returns row i of C0 + A·B, each cell in double-double, rounded
// once. Cells the classical product makes non-finite hold no meaning.
func exactRow[E Elem](a, b, c0 Mat[E], i int) []float64 {
	acc := make([]dd, b.Cols)
	for j := range acc {
		acc[j].add(c0.at(i, j))
	}
	for p := 0; p < a.Cols; p++ {
		v := a.at(i, p)
		for j := range acc {
			acc[j].addProd(v, b.at(p, j))
		}
	}
	out := make([]float64, len(acc))
	for j := range acc {
		out[j] = acc[j].value()
	}
	return out
}

// matVec returns M·v with each entry accumulated in double-double.
func matVec[E Elem](m Mat[E], v []float64) []float64 {
	out := make([]float64, m.Rows)
	for i := range out {
		var acc dd
		for j := 0; j < m.Cols; j++ {
			acc.addProd(m.at(i, j), v[j])
		}
		out[i] = acc.value()
	}
	return out
}

// matVecAbs returns |M|·v for v ≥ 0.
func matVecAbs[E Elem](m Mat[E], v []float64) []float64 {
	out := make([]float64, m.Rows)
	for i := range out {
		var s float64
		for j := 0; j < m.Cols; j++ {
			s += math.Abs(m.at(i, j)) * v[j]
		}
		out[i] = s
	}
	return out
}

// dd is a double-double accumulator (Ogita, Rump and Oishi's Dot2): the sum
// of products carries its rounding error in lo, so the result is as
// accurate as if computed in twice the working precision and then rounded.
type dd struct{ hi, lo float64 }

func (d *dd) add(v float64) {
	s, e := twoSum(d.hi, v)
	d.hi = s
	d.lo += e
}

func (d *dd) addProd(x, y float64) {
	p := x * y
	pe := math.FMA(x, y, -p)
	s, e := twoSum(d.hi, p)
	d.hi = s
	d.lo += e + pe
}

func (d *dd) value() float64 { return d.hi + d.lo }

func twoSum(a, b float64) (s, e float64) {
	s = a + b
	bb := s - a
	e = (a - (s - bb)) + (b - bb)
	return s, e
}
