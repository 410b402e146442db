package check

import (
	"math"
	"math/rand"
	"testing"

	"fmmfam"
	"fmmfam/internal/core"
	"fmmfam/internal/gemm"
	"fmmfam/internal/matrix"
)

func view[E Elem](m matrix.Mat[E]) Mat[E] {
	return Mat[E]{Rows: m.Rows, Cols: m.Cols, Stride: m.Stride, Data: m.Data}
}

func randMat[E matrix.Element](rng *rand.Rand, r, c int) matrix.Mat[E] {
	m := matrix.New[E](r, c)
	m.FillRand(rng)
	return m
}

func strassenAlgo() Algo {
	s := core.Strassen()
	return AlgoOf(rows(s.U), rows(s.V), rows(s.W), s.K)
}

func rows(m matrix.Mat[float64]) [][]float64 {
	out := make([][]float64, m.Rows)
	for i := range out {
		out[i] = append([]float64(nil), m.Data[i*m.Stride:i*m.Stride+m.Cols]...)
	}
	return out
}

func opts() Options {
	return Options{Levels: 2, Family: []Algo{strassenAlgo()}, Samples: 16, Seed: 7}
}

// gemmResult returns C0 + A·B from the go4x4 GEMM, with the inputs.
func gemmResult[E matrix.Element](t *testing.T, m, k, n int) (a, b, c0, c matrix.Mat[E]) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(m*k + n)))
	a, b, c0 = randMat[E](rng, m, k), randMat[E](rng, k, n), randMat[E](rng, m, n)
	ctx, err := gemm.NewContext[E](gemm.Config{MC: 96, KC: 256, NC: 2048, Threads: 1, Kernel: "go4x4"})
	if err != nil {
		t.Fatal(err)
	}
	c = c0.Clone()
	ctx.MulAdd(c, a, b)
	return a, b, c0, c
}

func TestPhi(t *testing.T) {
	s := strassenAlgo()
	if s != (Algo{Growth: 12, Split: 2, Adds: 8}) {
		t.Fatalf("Strassen parameters %+v, want growth 12, split 2, adds 8", s)
	}
	fam := []Algo{s}
	if got := Phi(100, 0, fam); got != 1e4 {
		t.Errorf("φ₀(100) = %g, want 1e4", got)
	}
	if got, want := Phi(100, 1, fam), 12*(50.0*50+50*8); got != want {
		t.Errorf("φ₁(100) = %g, want %g", got, want)
	}
	if Phi(100, 2, fam) <= Phi(100, 1, fam) {
		t.Error("φ₂ not above φ₁")
	}
}

func TestAcceptsGEMM(t *testing.T) {
	for _, sh := range [][3]int{{97, 131, 113}, {256, 256, 256}} {
		a, b, c0, c := gemmResult[float64](t, sh[0], sh[1], sh[2])
		if rep := Verify(Prepare(view(a), view(b), view(c0), opts()), view(c)); !rep.OK() {
			t.Errorf("float64 %v: GEMM result rejected: %v", sh, rep)
		}
		a32, b32, c032, c32 := gemmResult[float32](t, sh[0], sh[1], sh[2])
		if rep := Verify(Prepare(view(a32), view(b32), view(c032), opts()), view(c32)); !rep.OK() {
			t.Errorf("float32 %v: GEMM result rejected: %v", sh, rep)
		}
	}
}

func TestAcceptsTwoLevelStrassen(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, b, c0 := randMat[float64](rng, 256, 256), randMat[float64](rng, 256, 256), randMat[float64](rng, 256, 256)
	p, err := fmmfam.NewPlan(fmmfam.DefaultConfig(), fmmfam.ABC, fmmfam.Strassen(), fmmfam.Strassen())
	if err != nil {
		t.Fatal(err)
	}
	c := c0.Clone()
	p.MulAdd(c, a, b)
	if rep := Verify(Prepare(view(a), view(b), view(c0), opts()), view(c)); !rep.OK() {
		t.Errorf("two-level Strassen result rejected: %v", rep)
	}
}

func TestRejectsOneCellPerturbation(t *testing.T) {
	a, b, c0, c := gemmResult[float64](t, 128, 160, 96)
	ref := Prepare(view(a), view(b), view(c0), opts())
	cell := ref.Cells[0]
	tol := ref.CellTol + 4*unit64*math.Abs(cell.Want)

	c.Set(cell.I, cell.J, cell.Want+0.5*tol)
	if rep := Verify(ref, view(c)); !rep.OK() {
		t.Errorf("perturbation of half the bound rejected: %v", rep)
	}
	c.Set(cell.I, cell.J, cell.Want+1.01*tol)
	if rep := Verify(ref, view(c)); rep.BadCells != 1 {
		t.Errorf("perturbation just above the bound: %v, want one bad sampled cell", rep)
	}

	// A cell outside the sample is caught by the projection once the change
	// exceeds the row tolerance λ·√n·E (plus the rounding allowance).
	_, _, _, c = gemmResult[float64](t, 128, 160, 96)
	i, j := unsampled(ref)
	c.Set(i, j, c.At(i, j)+2*Lambda*math.Sqrt(float64(ref.N))*ref.CellTol)
	if rep := Verify(ref, view(c)); rep.BadRows != 1 {
		t.Errorf("unsampled-cell perturbation above the projection bound: %v, want one bad row", rep)
	}
}

func unsampled(ref *Ref) (int, int) {
	for i := 0; i < ref.M; i++ {
		for j := 0; j < ref.N; j++ {
			hit := false
			for _, c := range ref.Cells {
				hit = hit || (c.I == i && c.J == j)
			}
			if !hit {
				return i, j
			}
		}
	}
	panic("every cell sampled")
}

// strassenDropping computes C0 + A·B with one level of Strassen over the
// go4x4 GEMM, leaving out multiplication term drop (−1 keeps all seven).
func strassenDropping(t *testing.T, a, b, c0 matrix.Mat[float64], drop int) matrix.Mat[float64] {
	t.Helper()
	s := core.Strassen()
	ctx, err := gemm.NewContext[float64](gemm.Config{MC: 96, KC: 256, NC: 2048, Threads: 1, Kernel: "go4x4"})
	if err != nil {
		t.Fatal(err)
	}
	h := a.Rows / 2
	c := c0.Clone()
	for r := 0; r < s.R; r++ {
		if r == drop {
			continue
		}
		sum := func(m matrix.Mat[float64], coef matrix.Mat[float64]) matrix.Mat[float64] {
			out := matrix.New[float64](h, h)
			for idx := 0; idx < 4; idx++ {
				if w := coef.At(idx, r); w != 0 {
					out.AddScaled(w, m.Block(idx/2, idx%2, 2, 2))
				}
			}
			return out
		}
		prod := matrix.New[float64](h, h)
		ctx.MulAdd(prod, sum(a, s.U), sum(b, s.V))
		for idx := 0; idx < 4; idx++ {
			if w := s.W.At(idx, r); w != 0 {
				c.Block(idx/2, idx%2, 2, 2).AddScaled(w, prod)
			}
		}
	}
	return c
}

func TestRejectsDroppedTerm(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a, b, c0 := randMat[float64](rng, 128, 128), randMat[float64](rng, 128, 128), randMat[float64](rng, 128, 128)
	ref := Prepare(view(a), view(b), view(c0), opts())
	if rep := Verify(ref, view(strassenDropping(t, a, b, c0, -1))); !rep.OK() {
		t.Fatalf("full one-level Strassen rejected: %v", rep)
	}
	for r := 0; r < 7; r++ {
		if rep := Verify(ref, view(strassenDropping(t, a, b, c0, r))); rep.BadRows == 0 {
			t.Errorf("term %d dropped: accepted (%v)", r, rep)
		}
	}
}

// TestRejectsDroppedKSlab covers float32 with k = 4096, where the bound E is
// about half the size of a cell: the projection's threshold λ·√n·E exceeds
// the projection of the whole product, so a K-slab left out of the sum (as a
// K-split that loses one slab would) must be caught by the exact cells.
func TestRejectsDroppedKSlab(t *testing.T) {
	const m, k, n, slabs = 128, 4096, 128, 4
	a, b, c0, c := gemmResult[float32](t, m, k, n)
	ref := Prepare(view(a), view(b), view(c0), opts())
	if rep := Verify(ref, view(c)); !rep.OK() {
		t.Fatalf("float32 GEMM result rejected: %v", rep)
	}
	ctx, err := gemm.NewContext[float32](gemm.Config{MC: 96, KC: 256, NC: 2048, Threads: 1, Kernel: "go4x4"})
	if err != nil {
		t.Fatal(err)
	}
	for drop := 0; drop < slabs; drop++ {
		c := c0.Clone()
		for s := 0; s < slabs; s++ {
			if s != drop {
				ctx.MulAdd(c, a.Block(0, s, 1, slabs), b.Block(s, 0, slabs, 1))
			}
		}
		if rep := Verify(ref, view(c)); rep.BadCells == 0 {
			t.Errorf("K-slab %d of %d dropped: %v, want bad exact cells", drop, slabs, rep)
		} else {
			t.Logf("K-slab %d of %d dropped (E = %.3g): %v", drop, slabs, ref.CellTol, rep)
		}
	}
}

func TestRejectsNaNForInf(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a, b, c0 := randMat[float64](rng, 64, 48), randMat[float64](rng, 48, 40), randMat[float64](rng, 64, 40)
	for i := range b.Data {
		b.Data[i] = math.Copysign(0.5+0.5*math.Abs(b.Data[i]), b.Data[i]) // no zero: Inf·b stays ±Inf
	}
	a.Set(3, 5, math.Inf(1))
	c := c0.Clone()
	matrix.MulAdd(c, a, b) // the classical triple loop
	ref := Prepare(view(a), view(b), view(c0), opts())
	if !ref.NonFinite() {
		t.Fatal("non-finite input not detected")
	}
	if rep := Verify(ref, view(c)); !rep.OK() {
		t.Fatalf("classical result rejected: %v", rep)
	}
	if ClassOf(c.At(3, 7)) == Finite {
		t.Fatal("classical product kept the +Inf row finite")
	}
	c.Set(3, 7, math.NaN())
	if rep := Verify(ref, view(c)); rep.WrongClass != 1 {
		t.Errorf("NaN where the classical product gives ±Inf: %v, want one wrong-class cell", rep)
	}
}
