package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"fmmfam"
	"fmmfam/internal/matrix"
	"fmmfam/internal/model"
	"fmmfam/perfbench/check"
)

// shape is one operation's problem: C(m×n) += A(m×k)·B(k×n) at one dtype.
type shape struct {
	m, k, n int
	f32     bool
	family  string
	// bad names the one non-finite entry the inputs carry (badNone for
	// finite inputs).
	bad int
}

const (
	badNone = iota
	badPosInfA
	badNaNB
	badNegInfA
)

func (s shape) flops() float64 { return 2 * float64(s.m) * float64(s.k) * float64(s.n) }

func (s shape) dtype() string {
	if s.f32 {
		return "f32"
	}
	return "f64"
}

func (s shape) String() string {
	return fmt.Sprintf("%s %dx%dx%d %s", s.family, s.m, s.k, s.n, s.dtype())
}

// class is the library's plan-cache key for the shape (each dimension
// rounded up to a power of two) plus the dtype: calls of one class share a
// cached plan, so one warm-up call per class leaves nothing to build.
func (s shape) class() string {
	return fmt.Sprintf("%s/%d/%d/%d", s.dtype(), pow2(s.m), pow2(s.k), pow2(s.n))
}

func pow2(x int) int {
	b := 1
	for b < x {
		b <<= 1
	}
	return b
}

// Workload menus. Every round runs each entry of its workload's menu once,
// in an order the seed shuffles, on entries the seed generates: sizes are
// fixed so that every seed runs the same plan classes and sharding
// decisions, and the seed-to-seed spread measures the program, not the mix.
var (
	// squareMenu is the paper's square sweep at reduced scale: sizes below
	// and above the 1024 shard threshold, none a power of two.
	squareMenu = []int{960, 1152, 1408, 1664, 2000}

	// shapesMenu64 and shapesMenu32 are the float64 and float32 halves of
	// the shapes round, run alternately; the round's 32nd operation is the
	// non-finite one (shapesBad).
	shapesMenu64, shapesMenu32 = shapesMenus()

	// serveMenu is one connection's round: 18 small requests (every
	// dimension 16–128, the coalesced MulAddBatch path) and 2 mid-size ones
	// (192–384, the direct MulAdd path), half of each dtype.
	serveMenu = []shape{
		{m: 16, k: 16, n: 16, family: "small"}, {m: 24, k: 40, n: 32, f32: true, family: "small"},
		{m: 32, k: 32, n: 32, family: "small"}, {m: 48, k: 64, n: 40, f32: true, family: "small"},
		{m: 64, k: 64, n: 64, family: "small"}, {m: 80, k: 48, n: 96, f32: true, family: "small"},
		{m: 96, k: 96, n: 96, family: "small"}, {m: 112, k: 128, n: 64, f32: true, family: "small"},
		{m: 128, k: 128, n: 128, family: "small"}, {m: 128, k: 32, n: 128, f32: true, family: "small"},
		{m: 20, k: 120, n: 60, family: "small"}, {m: 56, k: 88, n: 104, f32: true, family: "small"},
		{m: 72, k: 72, n: 72, family: "small"}, {m: 100, k: 60, n: 124, f32: true, family: "small"},
		{m: 40, k: 96, n: 48, family: "small"}, {m: 120, k: 24, n: 88, f32: true, family: "small"},
		{m: 88, k: 112, n: 120, family: "small"}, {m: 16, k: 128, n: 16, f32: true, family: "small"},
		{m: 192, k: 320, n: 256, family: "mid"}, {m: 384, k: 256, n: 320, f32: true, family: "mid"},
	}

	// shapesBad are the non-finite operations, one per shapes round in
	// rotation. Their inputs do not depend on the seed: the default FMM plan
	// turns ±Inf into NaN and spreads NaN beyond the row or column the
	// classical product confines it to, so each fails on every run.
	shapesBad = []shape{
		{m: 256, k: 256, n: 256, family: "nonfinite", bad: badPosInfA},
		{m: 320, k: 192, n: 288, family: "nonfinite", bad: badNaNB},
		{m: 384, k: 256, n: 320, family: "nonfinite", bad: badNegInfA},
	}
)

func shapesMenus() (f64, f32 []shape) {
	add := func(fam string, f32 bool, dims ...[3]int) []shape {
		var out []shape
		for _, d := range dims {
			out = append(out, shape{m: d[0], k: d[1], n: d[2], f32: f32, family: fam})
		}
		return out
	}
	// Rank-k updates, K-dominant products (the K-split path), tall-skinny
	// and short-wide products.
	f64 = append(f64, add("rankk", false, [3]int{1024, 128, 1024}, [3]int{2048, 384, 2048})...)
	f32 = append(f32, add("rankk", true, [3]int{1536, 256, 1536}, [3]int{1280, 192, 1280})...)
	f64 = append(f64, add("kdom", false, [3]int{256, 8192, 256}, [3]int{512, 4096, 512})...)
	f32 = append(f32, add("kdom", true, [3]int{128, 4096, 128}, [3]int{384, 6144, 384})...)
	f64 = append(f64, add("tall", false, [3]int{4096, 256, 128}, [3]int{128, 256, 4096})...)
	f32 = append(f32, add("tall", true, [3]int{6144, 128, 96}, [3]int{96, 128, 6144})...)
	// Independent m, k, n in 200–900, below the shard threshold: many plan
	// classes. Drawn once from a fixed generator, not from the seed.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 19; i++ {
		s := shape{m: 200 + rng.Intn(701), k: 200 + rng.Intn(701), n: 200 + rng.Intn(701), family: "small"}
		if i%2 == 1 {
			s.f32 = true
			f32 = append(f32, s)
		} else {
			f64 = append(f64, s)
		}
	}
	return f64, f32
}

// task is one operation with its inputs and reference: C starts at C0 and
// receives C0 + A·B.
type task interface {
	shape() shape
	reset()
	run(e engine) error
	verify() check.Report
}

// engine is the multiply entry point a task runs through: the package-level
// functions, a Multiplier pair, or a serve.Client.
type engine struct {
	mul64 func(c, a, b fmmfam.Matrix) error
	mul32 func(c, a, b fmmfam.Matrix32) error
}

var packageEngine = engine{mul64: fmmfam.Multiply, mul32: fmmfam.Multiply32}

type taskOf[E matrix.Element] struct {
	sh          shape
	a, b, c0, c matrix.Mat[E]
	ref         *check.Ref
}

func (t *taskOf[E]) shape() shape { return t.sh }
func (t *taskOf[E]) reset()       { t.c.CopyFrom(t.c0) }

func (t *taskOf[E]) run(e engine) error {
	switch c := any(t.c).(type) {
	case fmmfam.Matrix:
		return e.mul64(c, any(t.a).(fmmfam.Matrix), any(t.b).(fmmfam.Matrix))
	case fmmfam.Matrix32:
		return e.mul32(c, any(t.a).(fmmfam.Matrix32), any(t.b).(fmmfam.Matrix32))
	}
	panic("unreachable")
}

func (t *taskOf[E]) verify() check.Report { return check.Verify(t.ref, view(t.c)) }

func view[E matrix.Element](m matrix.Mat[E]) check.Mat[E] {
	return check.Mat[E]{Rows: m.Rows, Cols: m.Cols, Stride: m.Stride, Data: m.Data}
}

// newTask generates the inputs of sh from seed, entries uniform in
// [−1, 1), and prepares the reference.
func newTask(sh shape, seed int64) task {
	if sh.f32 {
		return makeTask[float32](sh, seed)
	}
	return makeTask[float64](sh, seed)
}

func makeTask[E matrix.Element](sh shape, seed int64) *taskOf[E] {
	rng := rand.New(rand.NewSource(seed))
	t := &taskOf[E]{sh: sh,
		a: matrix.New[E](sh.m, sh.k), b: matrix.New[E](sh.k, sh.n),
		c0: matrix.New[E](sh.m, sh.n), c: matrix.New[E](sh.m, sh.n)}
	t.a.FillRand(rng)
	t.b.FillRand(rng)
	t.c0.FillRand(rng)
	switch sh.bad {
	case badPosInfA:
		t.a.Set(sh.m/3, sh.k/2, E(math.Inf(1)))
	case badNaNB:
		t.b.Set(sh.k/4, sh.n/4, E(math.NaN()))
	case badNegInfA:
		t.a.Set(sh.m/3, sh.k/2, E(math.Inf(-1)))
	}
	t.ref = check.Prepare(view(t.a), view(t.b), view(t.c0), checkOptions(rng.Int63()))
	t.reset()
	return t
}

// Checker settings: the bound covers every algorithm of the default
// candidate family at up to its deepest level count.
var (
	checkFamily, checkLevels = candidateFamily()
)

const checkSamples = 16

func checkOptions(seed int64) check.Options {
	return check.Options{Levels: checkLevels, Family: checkFamily, Samples: checkSamples, Seed: seed}
}

// candidateFamily returns the error parameters of every algorithm the
// default Multiplier may select, read from their coefficients, and the most
// levels a candidate composes.
func candidateFamily() ([]check.Algo, int) {
	var fam []check.Algo
	seen := make(map[check.Algo]bool)
	levels := 0
	for _, c := range model.DefaultCandidates() {
		levels = max(levels, len(c.Levels))
		for _, l := range c.Levels {
			al := check.AlgoOf(rowsOf(l.U), rowsOf(l.V), rowsOf(l.W), l.K)
			if !seen[al] {
				seen[al] = true
				fam = append(fam, al)
			}
		}
	}
	return fam, levels
}

func rowsOf(m matrix.Mat[float64]) [][]float64 {
	out := make([][]float64, m.Rows)
	for i := range out {
		out[i] = m.Data[i*m.Stride : i*m.Stride+m.Cols]
	}
	return out
}

// workloadShapes lists the distinct finite shapes of a workload.
func workloadShapes(name string) []shape {
	switch name {
	case "square":
		var out []shape
		for _, n := range squareMenu {
			out = append(out, shape{m: n, k: n, n: n, family: "square"})
		}
		return out
	case "shapes":
		return append(append([]shape(nil), shapesMenu64...), shapesMenu32...)
	}
	return serveMenu
}

// workload is one workload's operations, grouped in rounds.
type workload struct {
	// tasks holds every distinct operation; rounds lists, per round, the
	// indices into tasks in run order.
	tasks  []task
	rounds func(r int) []int
}

// buildWorkload generates the inputs of a workload from seed. For serve it
// returns one connection's operations; conn selects the connection.
func buildWorkload(name string, seed int64, conn int) (*workload, error) {
	rng := rand.New(rand.NewSource(seed*7919 + int64(conn)))
	w := &workload{}
	switch name {
	case "square":
		for _, s := range workloadShapes(name) {
			w.tasks = append(w.tasks, newTask(s, rng.Int63()))
		}
		w.rounds = func(int) []int { return rng.Perm(len(w.tasks)) }
	case "shapes":
		for _, s := range shapesMenu64 {
			w.tasks = append(w.tasks, newTask(s, rng.Int63()))
		}
		for _, s := range shapesMenu32 {
			w.tasks = append(w.tasks, newTask(s, rng.Int63()))
		}
		badBase := len(w.tasks)
		for i, s := range shapesBad {
			w.tasks = append(w.tasks, newTask(s, int64(1000+i)))
		}
		n64, n32 := len(shapesMenu64), len(shapesMenu32)
		w.rounds = func(r int) []int {
			p64, p32 := rng.Perm(n64), rng.Perm(n32)
			var out []int
			for i := 0; i < max(n64, n32); i++ {
				if i < n64 {
					out = append(out, p64[i])
				}
				if i < n32 {
					out = append(out, n64+p32[i])
				}
			}
			// The non-finite operation takes a seeded position in the round.
			pos := rng.Intn(len(out) + 1)
			out = append(out[:pos], append([]int{badBase + r%len(shapesBad)}, out[pos:]...)...)
			return out
		}
	case "serve":
		// Four rounds of distinct data per connection, cycled.
		const dataRounds = 4
		for r := 0; r < dataRounds; r++ {
			for _, s := range serveMenu {
				w.tasks = append(w.tasks, newTask(s, rng.Int63()))
			}
		}
		w.rounds = func(r int) []int {
			base := (r % dataRounds) * len(serveMenu)
			out := rng.Perm(len(serveMenu))
			for i := range out {
				out[i] += base
			}
			return out
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want square, shapes or serve)", name)
	}
	return w, nil
}

// warmSet returns one task per plan class, chosen as classReps chooses.
func warmSet(tasks []task) []task {
	ss := make([]shape, len(tasks))
	for i, t := range tasks {
		ss[i] = t.shape()
	}
	var out []task
	for _, i := range classReps(ss) {
		out = append(out, tasks[i])
	}
	return out
}

// classReps returns, for every plan class in class order, the index of the
// shape whose call builds the class's plan in a run's set-up: the cheapest
// finite member, or the cheapest member when the class has no finite one.
// The traced ladder replays the same shapes, so it measures the plans the
// timed run serves.
func classReps(ss []shape) []int {
	better := func(a, b shape) bool {
		if (a.bad == badNone) != (b.bad == badNone) {
			return a.bad == badNone
		}
		return a.flops() < b.flops()
	}
	best := make(map[string]int)
	for i, s := range ss {
		cl := s.class()
		if cur, ok := best[cl]; !ok || better(s, ss[cur]) {
			best[cl] = i
		}
	}
	keys := make([]string, 0, len(best))
	for k := range best {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]int, len(keys))
	for i, k := range keys {
		out[i] = best[k]
	}
	return out
}
