package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"fmmfam"
	"fmmfam/internal/fmmexec"
	"fmmfam/internal/gemm"
	"fmmfam/internal/kernel"
	"fmmfam/internal/matrix"
	"fmmfam/internal/model"
	"fmmfam/internal/stats"
	"fmmfam/serve"
	"fmmfam/serve/servetest"
)

// The traced run replays each workload's shape classes down the layer
// ladder with a span around every call the benchmark makes into a layer's
// public function, then measures each layer on its own: the micro-kernel
// rungs per backend and dtype, GEMM at 1920³ and 2048×256×2048, and the six
// Strassen plans at 1920³. Every per-layer metric is computed from those
// span durations.

// ladderSize is the square size of the GEMM and FMM plan rungs.
const ladderSize = 1920

// rankK is the rank-k GEMM rung's shape.
var rankK = [3]int{2048, 256, 2048}

// fmmPlans are the FMM plan rungs: Strassen at one and two levels in each
// variant.
var fmmPlans = []struct {
	name    string
	variant fmmfam.Variant
	levels  int
}{
	{"s1-naive", fmmfam.Naive, 1}, {"s1-ab", fmmfam.AB, 1}, {"s1-abc", fmmfam.ABC, 1},
	{"s2-naive", fmmfam.Naive, 2}, {"s2-ab", fmmfam.AB, 2}, {"s2-abc", fmmfam.ABC, 2},
}

func runLadder(seed int64, tr *tracer) (*result, error) {
	res := newResult()
	micro := make(map[string]float64)
	for _, name := range kernel.BackendsFor(matrix.Float64) {
		if err := kernelRow[float64](name, res, tr, micro); err != nil {
			return nil, err
		}
	}
	for _, name := range kernel.BackendsFor(matrix.Float32) {
		if err := kernelRow[float32](name, res, tr, micro); err != nil {
			return nil, err
		}
	}
	gemm64, err := gemmRows[float64](res, tr, micro)
	if err != nil {
		return nil, err
	}
	if _, err := gemmRows[float32](res, tr, micro); err != nil {
		return nil, err
	}
	if err := fmmexecRows(res, tr, gemm64); err != nil {
		return nil, err
	}
	for _, w := range []string{"square", "shapes"} {
		if err := libraryLadder(w, seed, res, tr); err != nil {
			return nil, err
		}
	}
	if err := serveLadder(seed, res, tr); err != nil {
		return nil, err
	}
	return res, nil
}

// reps times f at least once and again while the total stays under budget,
// at most max times.
func reps(max int, budget time.Duration, f func() time.Duration) []float64 {
	var out []float64
	var total time.Duration
	for len(out) < max && (len(out) == 0 || total < budget) {
		d := f()
		total += d
		out = append(out, d.Seconds())
	}
	return out
}

func dtypeName[E matrix.Element]() string {
	if matrix.DtypeOf[E]() == matrix.Float32 {
		return "f32"
	}
	return "f64"
}

func elemBytes[E matrix.Element]() float64 { return float64(matrix.DtypeOf[E]().Size()) }

func randMat[E matrix.Element](rng *rand.Rand, r, c int) matrix.Mat[E] {
	m := matrix.New[E](r, c)
	m.FillRand(rng)
	return m
}

// kernelRow measures one backend at one dtype at the default blocking's
// panel sizes: PackA and PackB (1- and 3-term linear combinations), Micro
// over a packed mc×kc by kc×nc block, and Scatter of every tile into two C
// targets. Micro and Scatter calls take tens of nanoseconds, so one span
// covers one sweep of them rather than each call.
func kernelRow[E matrix.Element](name string, res *result, tr *tracer, micro map[string]float64) error {
	bk, err := kernel.Resolve[E](name)
	if err != nil {
		return err
	}
	key := name + "." + dtypeName[E]()
	cfg := gemm.DefaultConfig()
	mc, kc, nc := cfg.MC, cfg.KC, cfg.NC
	rng := rand.New(rand.NewSource(17))
	var as, bs [3]matrix.Mat[E]
	for i := range as {
		as[i], bs[i] = randMat[E](rng, mc, kc), randMat[E](rng, kc, nc)
	}
	combos := func(ms [3]matrix.Mat[E]) [][]kernel.Term[E] {
		return [][]kernel.Term[E]{{{Coef: 1, M: ms[0]}}, {{Coef: 1, M: ms[0]}, {Coef: -1, M: ms[1]}, {Coef: 1, M: ms[2]}}}
	}
	abuf := make([]E, bk.PackABufLen(mc, kc))
	bbuf := make([]E, bk.PackBBufLen(kc, nc))
	op := tr.newOp()
	parent, done := tr.group("kernel", key, 0, op)
	defer done()
	const budget = 60 * time.Millisecond

	pack := func(span string, f func([]kernel.Term[E]), terms [][]kernel.Term[E], elems func(int) int) float64 {
		var bytes float64
		var total time.Duration
		for total < budget {
			for _, ts := range terms {
				d := tr.timed(span, fmt.Sprintf("%d-term", len(ts)), parent, op, func() { f(ts) })
				total += d
				bytes += float64(elems(len(ts))) * elemBytes[E]()
			}
		}
		return bytes / total.Seconds() / 1e9
	}
	res.set("kernel.packa_gbs."+key, "GB/s", pack("kernel.PackA",
		func(ts []kernel.Term[E]) { bk.PackA(abuf, ts, 0, 0, mc, kc) }, combos(as),
		func(n int) int { return n*mc*kc + len(abuf) }))
	res.set("kernel.packb_gbs."+key, "GB/s", pack("kernel.PackB",
		func(ts []kernel.Term[E]) { bk.PackB(bbuf, ts, 0, 0, kc, nc) }, combos(bs),
		func(n int) int { return n*kc*nc + len(bbuf) }))

	mr, nr := bk.MR(), bk.NR()
	ap, bp := (mc+mr-1)/mr, (nc+nr-1)/nr
	acc := make([]E, mr*nr)
	var total time.Duration
	sweeps := 0
	for total < 2*budget {
		d := tr.timed("kernel.Micro", "sweep", parent, op, func() {
			for j := 0; j < bp; j++ {
				for i := 0; i < ap; i++ {
					bk.Micro(kc, abuf[i*mr*kc:], bbuf[j*kc*nr:], acc)
				}
			}
		})
		total += d
		sweeps++
	}
	gf := 2 * float64(mr*nr*kc*ap*bp*sweeps) / total.Seconds() / 1e9
	micro[key] = gf
	res.set("kernel.micro_gflops."+key, "GFLOPS", gf)

	c1, c2 := matrix.New[E](mc, nc), matrix.New[E](mc, nc)
	total, sweeps = 0, 0
	for total < budget {
		d := tr.timed("kernel.Scatter", "sweep", parent, op, func() {
			for i := 0; i < mc; i += mr {
				for j := 0; j < nc; j += nr {
					m, n := min(mr, mc-i), min(nr, nc-j)
					bk.Scatter(c1, i, j, 1, acc, m, n)
					bk.Scatter(c2, i, j, -1, acc, m, n)
				}
			}
		})
		total += d
		sweeps++
	}
	// Each target element is read and written once per sweep.
	res.set("kernel.scatter_gbs."+key, "GB/s", 2*2*float64(mc*nc*sweeps)*elemBytes[E]()/total.Seconds()/1e9)
	return nil
}

// gemmRows measures plain GEMM per backend at 1920³ (Context.MulAdd) and at
// the rank-k shape (Context.FusedMulAdd), with the zero-config blocking and
// thread count. It returns GFLOPS at 1920³ by backend.
func gemmRows[E matrix.Element](res *result, tr *tracer, micro map[string]float64) (map[string]float64, error) {
	sq := makeTask[E](shape{m: ladderSize, k: ladderSize, n: ladderSize, family: "gemm"}, 21)
	rk := makeTask[E](shape{m: rankK[0], k: rankK[1], n: rankK[2], family: "gemm-rankk"}, 22)
	out := make(map[string]float64)
	for _, name := range kernel.BackendsFor(matrix.DtypeOf[E]()) {
		key := name + "." + dtypeName[E]()
		cfg := gemm.DefaultConfig()
		cfg.Threads = runtime.GOMAXPROCS(0)
		cfg.Kernel = name
		ctx, err := gemm.NewContext[E](cfg)
		if err != nil {
			return nil, err
		}
		op := tr.newOp()
		parent, done := tr.group("gemm", key, 0, op)
		ds := reps(3, time.Second, func() time.Duration {
			d := tr.timed("gemm.Context.MulAdd", fmt.Sprintf("%d³", ladderSize), parent, op, func() { ctx.MulAdd(sq.c, sq.a, sq.b) })
			res.outcome(sq, nil)
			sq.reset()
			return d
		})
		gf := sq.sh.flops() / stats.Median(ds) / 1e9
		out[name] = gf
		res.set("gemm.gflops."+key, "GFLOPS", gf)
		res.set("gemm.frac_of_micro."+key, "ratio", gf/(float64(cfg.Threads)*micro[key]))
		ds = reps(3, time.Second, func() time.Duration {
			d := tr.timed("gemm.Context.FusedMulAdd", "rank-k", parent, op, func() {
				ctx.FusedMulAdd(gemm.SingleTerm(rk.c), gemm.SingleTerm(rk.a), gemm.SingleTerm(rk.b))
			})
			res.outcome(rk, nil)
			rk.reset()
			return d
		})
		res.set("gemm.rankk_gflops."+key, "GFLOPS", rk.sh.flops()/stats.Median(ds)/1e9)
		done()
	}
	return out, nil
}

// fmmexecRows measures the six Strassen plans per backend at 1920³, float64,
// built with fmmfam.NewPlan from the zero configuration with the backend
// selected. Bytes allocated per call come from the backend that ran each
// plan most often (the later calls are steady state).
func fmmexecRows(res *result, tr *tracer, gemm64 map[string]float64) error {
	t := makeTask[float64](shape{m: ladderSize, k: ladderSize, n: ladderSize, family: "fmmexec"}, 23)
	allocReps := make(map[string]int)
	for _, name := range kernel.BackendsFor(matrix.Float64) {
		cfg := zeroConfig()
		cfg.Kernel = name
		for _, pl := range fmmPlans {
			levels := make([]fmmfam.Algorithm, pl.levels)
			for i := range levels {
				levels[i] = fmmfam.Strassen()
			}
			op := tr.newOp()
			parent, done := tr.group("fmmexec", pl.name+"."+name, 0, op)
			var p *fmmfam.Plan
			var err error
			tr.timed("fmmexec.NewPlan", "", parent, op, func() { p, err = fmmfam.NewPlan(cfg, pl.variant, levels...) })
			if err != nil {
				return err
			}
			var alloc uint64
			ds := reps(3, time.Second, func() time.Duration {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				d := tr.timed("fmmexec.Plan.MulAdd", p.String(), parent, op, func() { p.MulAdd(t.c, t.a, t.b) })
				runtime.ReadMemStats(&after)
				alloc = after.TotalAlloc - before.TotalAlloc
				res.outcome(t, nil)
				t.reset()
				return d
			})
			done()
			gf := t.sh.flops() / stats.Median(ds) / 1e9
			res.set("fmmexec.gflops."+pl.name+"."+name, "GFLOPS", gf)
			res.set("fmmexec.speedup_vs_gemm."+pl.name+"."+name, "ratio", gf/gemm64[name])
			if len(ds) > allocReps[pl.name] {
				allocReps[pl.name] = len(ds)
				res.set("fmmexec.alloc_b_per_call."+pl.name, "B", float64(alloc))
			}
		}
	}
	return nil
}

// ladderEngines are the zero-config engines a workload's classes replay
// through, plus twins with sharding disabled.
type ladderEngines struct {
	def64, un64 *fmmfam.Multiplier
	def32, un32 *fmmfam.Multiplier32
}

func newLadderEngines() *ladderEngines {
	un := zeroConfig()
	un.ShardThreshold = -1
	return &ladderEngines{
		def64: fmmfam.NewMultiplier(zeroConfig(), fmmfam.PaperArch()),
		un64:  fmmfam.NewMultiplier(un, fmmfam.PaperArch()),
		def32: fmmfam.NewMultiplier32(zeroConfig(), fmmfam.PaperArch()),
		un32:  fmmfam.NewMultiplier32(un, fmmfam.PaperArch()),
	}
}

func (e *ladderEngines) close() error {
	return errors.Join(e.def64.Close(), e.un64.Close(), e.def32.Close(), e.un32.Close())
}

func enginesFor[E matrix.Element](e *ladderEngines) (def, un *fmmfam.GenericMultiplier[E]) {
	if matrix.DtypeOf[E]() == matrix.Float32 {
		return any(e.def32).(*fmmfam.GenericMultiplier[E]), any(e.un32).(*fmmfam.GenericMultiplier[E])
	}
	return any(e.def64).(*fmmfam.GenericMultiplier[E]), any(e.un64).(*fmmfam.GenericMultiplier[E])
}

// classTiming is one shape class's replay down the ladder.
type classTiming struct {
	sh        shape
	planBuild float64 // first PlanFor, s
	served    float64 // Multiplier.MulAdd, traced, s
	untraced  float64 // the same call with no span, s
	unsharded float64 // Multiplier.MulAdd with sharding disabled, s
	plan      float64 // the served plan's Plan.MulAdd, s
	gemm      float64 // gemm.Context.MulAdd, s
	pred      float64 // the model's prediction for the served plan, s
	alloc     float64 // bytes allocated by one Multiplier.MulAdd
}

// shardRung reports whether a class feeds a shard metric: a square class at
// or above the 1024 shard threshold (2D tiling) or a K-dominant one
// (K-split). Only those also run with sharding disabled.
func shardRung(s shape) bool {
	return (s.family == "square" && s.m >= fmmfam.DefaultShardThreshold) || s.family == "kdom"
}

func ladderClass[E matrix.Element](t *taskOf[E], es *ladderEngines, res *result, tr *tracer, tracedFirst bool) (classTiming, error) {
	def, un := enginesFor[E](es)
	s := t.sh
	ct := classTiming{sh: s}
	op := tr.newOp()
	parent, done := tr.group("class", s.String(), 0, op)
	defer done()

	var p *fmmexec.Plan[E]
	var err error
	d := tr.timed("multiplier.PlanFor", s.class(), parent, op, func() { p, err = def.PlanFor(s.m, s.k, s.n) })
	if err != nil {
		return ct, err
	}
	ct.planBuild = d.Seconds()

	serve := func(traced, countAlloc bool) (float64, error) {
		var before, after runtime.MemStats
		if countAlloc {
			runtime.ReadMemStats(&before)
		}
		var err error
		var d time.Duration
		if traced {
			d = tr.timed("multiplier.MulAdd", "", parent, op, func() { err = def.MulAdd(t.c, t.a, t.b) })
		} else {
			start := time.Now()
			err = def.MulAdd(t.c, t.a, t.b)
			d = time.Since(start)
		}
		if countAlloc {
			runtime.ReadMemStats(&after)
			ct.alloc = float64(after.TotalAlloc - before.TotalAlloc)
		}
		res.outcome(t, err)
		t.reset()
		return d.Seconds(), err
	}
	if tracedFirst {
		ct.served, err = serve(true, false)
		if err == nil {
			ct.untraced, err = serve(false, true)
		}
	} else {
		ct.untraced, err = serve(false, false)
		if err == nil {
			ct.served, err = serve(true, true)
		}
	}
	if err != nil {
		return ct, err
	}

	ct.unsharded = ct.served
	if shardRung(s) {
		d = tr.timed("multiplier.MulAdd", "unsharded", parent, op, func() { err = un.MulAdd(t.c, t.a, t.b) })
		res.outcome(t, err)
		t.reset()
		ct.unsharded = d.Seconds()
	}
	d = tr.timed("fmmexec.Plan.MulAdd", p.String(), parent, op, func() { p.MulAdd(t.c, t.a, t.b) })
	res.outcome(t, nil)
	t.reset()
	ct.plan = d.Seconds()
	d = tr.timed("gemm.Context.MulAdd", "", parent, op, func() { p.Context().MulAdd(t.c, t.a, t.b) })
	res.outcome(t, nil)
	t.reset()
	ct.gemm = d.Seconds()

	kernelPanels(p.Context().Backend(), t, parent, op, tr)
	t.reset()

	kname := def.Stats().Kernel
	arch := model.ArchForKernel(model.ArchForDtype(fmmfam.PaperArch(), matrix.DtypeOf[E]()), kname)
	tr.timed("model.Recommend", "", parent, op, func() { fmmfam.Recommend(arch, s.m, s.k, s.n) })
	tr.timed("model.Predict", p.String(), parent, op, func() {
		ct.pred = fmmfam.Predict(arch, fmmfam.Candidate{Levels: p.Levels, Variant: p.Variant}, s.m, s.k, s.n)
	})
	return ct, nil
}

// kernelPanels runs the backend's calls at the default blocking's panel
// sizes for the class: one PackA, one PackB, one Micro sweep and one
// Scatter sweep into C (which the caller resets).
func kernelPanels[E matrix.Element](bk kernel.Backend[E], t *taskOf[E], parent, op int64, tr *tracer) {
	cfg := gemm.DefaultConfig()
	mc, kc, nc := min(cfg.MC, t.sh.m), min(cfg.KC, t.sh.k), min(cfg.NC, t.sh.n)
	abuf := make([]E, bk.PackABufLen(mc, kc))
	bbuf := make([]E, bk.PackBBufLen(kc, nc))
	mr, nr := bk.MR(), bk.NR()
	acc := make([]E, mr*nr)
	tr.timed("kernel.PackA", "", parent, op, func() { bk.PackA(abuf, kernel.SingleTerm(t.a), 0, 0, mc, kc) })
	tr.timed("kernel.PackB", "", parent, op, func() { bk.PackB(bbuf, kernel.SingleTerm(t.b), 0, 0, kc, nc) })
	tr.timed("kernel.Micro", "sweep", parent, op, func() {
		for j := 0; j*nr < nc; j++ {
			for i := 0; i*mr < mc; i++ {
				bk.Micro(kc, abuf[i*mr*kc:], bbuf[j*kc*nr:], acc)
			}
		}
	})
	tr.timed("kernel.Scatter", "sweep", parent, op, func() {
		for i := 0; i < mc; i += mr {
			for j := 0; j < nc; j += nr {
				bk.Scatter(t.c, i, j, 1, acc, min(mr, mc-i), min(nr, nc-j))
			}
		}
	})
}

// ladderSummary aggregates one workload's class replay.
type ladderSummary struct {
	classes  []classTiming
	dispatch float64 // µs
	engines  *ladderEngines
}

// setMultiplier sets workload w's plan-build, dispatch and allocation
// metrics.
func (sum *ladderSummary) setMultiplier(res *result, w string) {
	var planBuild []float64
	var alloc float64
	for _, c := range sum.classes {
		planBuild = append(planBuild, c.planBuild*1e3)
		alloc += c.alloc
	}
	res.set("multiplier.plan_build_ms."+w, "ms", stats.Median(planBuild))
	res.set("multiplier.dispatch_us."+w, "us", sum.dispatch)
	res.set("multiplier.alloc_b_per_op."+w, "B", alloc/float64(len(sum.classes)))
}

// replayClasses replays one representative of every plan class of the
// workload down the ladder, then times Multiplier.MulAdd against Plan.MulAdd
// on the cheapest class to isolate dispatch.
func replayClasses(w string, seed int64, res *result, tr *tracer) (*ladderSummary, error) {
	sum := &ladderSummary{engines: newLadderEngines()}
	shapes := workloadShapes(w)
	var reps []shape
	for _, i := range classReps(shapes) {
		reps = append(reps, shapes[i])
	}
	rng := rand.New(rand.NewSource(seed))
	cheapest := -1
	var cheapTask task
	for i, s := range reps {
		t := newTask(s, rng.Int63())
		var ct classTiming
		var err error
		if s.f32 {
			ct, err = ladderClass(t.(*taskOf[float32]), sum.engines, res, tr, i%2 == 0)
		} else {
			ct, err = ladderClass(t.(*taskOf[float64]), sum.engines, res, tr, i%2 == 0)
		}
		if err != nil {
			return nil, err
		}
		sum.classes = append(sum.classes, ct)
		if cheapest < 0 || s.flops() < reps[cheapest].flops() {
			cheapest, cheapTask = i, t
		}
	}
	var err error
	if reps[cheapest].f32 {
		sum.dispatch, err = dispatchUS(cheapTask.(*taskOf[float32]), sum.engines, sum.classes[cheapest].served, res, tr)
	} else {
		sum.dispatch, err = dispatchUS(cheapTask.(*taskOf[float64]), sum.engines, sum.classes[cheapest].served, res, tr)
	}
	return sum, err
}

// dispatchUS returns median Multiplier.MulAdd minus median Plan.MulAdd on
// the unsharded engine, same plan and shape, in µs. The call count keeps
// the measurement near 0.3 s (1 to 201 calls of each).
func dispatchUS[E matrix.Element](t *taskOf[E], es *ladderEngines, est float64, res *result, tr *tracer) (float64, error) {
	_, un := enginesFor[E](es)
	p, err := un.PlanFor(t.sh.m, t.sh.k, t.sh.n)
	if err != nil {
		return 0, err
	}
	n := int(math.Max(1, math.Min(201, 0.15/est)))
	op := tr.newOp()
	parent, done := tr.group("dispatch", t.sh.String(), 0, op)
	defer done()
	var mul, plan []float64
	for i := 0; i < n; i++ {
		d := tr.timed("multiplier.MulAdd", "unsharded", parent, op, func() { err = un.MulAdd(t.c, t.a, t.b) })
		res.outcome(t, err)
		t.reset()
		if err != nil {
			return 0, err
		}
		mul = append(mul, d.Seconds())
		d = tr.timed("fmmexec.Plan.MulAdd", p.String(), parent, op, func() { p.MulAdd(t.c, t.a, t.b) })
		res.outcome(t, nil)
		t.reset()
		plan = append(plan, d.Seconds())
	}
	return (stats.Median(mul) - stats.Median(plan)) * 1e6, nil
}

// gcDelta reads the GC counters before a phase and reports cycles per
// second and mean pause per cycle after it.
func gcDelta() func(res *result, w string) {
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	return func(res *result, w string) {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		cycles := float64(after.NumGC - before.NumGC)
		res.set("runtime.gc_cycles_per_s."+w, "1/s", cycles/time.Since(start).Seconds())
		pause := 0.0
		if cycles > 0 {
			pause = float64(after.PauseTotalNs-before.PauseTotalNs) / cycles / 1e6
		}
		res.set("runtime.gc_pause_ms."+w, "ms", pause)
	}
}

// libraryLadder replays square or shapes and sets that workload's
// per-layer metrics.
func libraryLadder(w string, seed int64, res *result, tr *tracer) error {
	gc := gcDelta()
	sum, err := replayClasses(w, seed, res, tr)
	if err != nil {
		return err
	}
	gc(res, w)
	var predErr []float64
	var served, best, untraced, flops, shardUn, shardServed float64
	slower := 0
	for _, c := range sum.classes {
		predErr = append(predErr, math.Abs(c.pred-c.plan)/c.plan)
		served += c.served
		untraced += c.untraced
		best += math.Min(c.served, c.gemm)
		flops += c.sh.flops()
		if c.served > c.gemm {
			slower++
		}
		if shardRung(c.sh) {
			shardUn += c.unsharded
			shardServed += c.served
		}
	}
	res.set("model.pred_err."+w, "ratio", stats.Median(predErr))
	res.set("model.regret."+w, "ratio", served/best)
	res.set("model.slower_than_gemm."+w, "count", float64(slower))
	res.set("multiplier.cached_plans."+w, "count", float64(sum.engines.def64.CachedPlans()+sum.engines.def32.CachedPlans()))
	sum.setMultiplier(res, w)
	if w == "square" {
		res.set("shard.speedup_2d", "ratio", shardUn/shardServed)
	} else {
		res.set("shard.speedup_ksplit", "ratio", shardUn/shardServed)
	}
	res.set("trace.overhead_pct."+w, "%", overheadPct(flops/untraced, flops/served))
	res.engines["Multiplier"] = sum.engines.def64.Stats().Kernel
	res.engines["Multiplier32"] = sum.engines.def32.Stats().Kernel
	return sum.engines.close()
}

// overheadPct is the traced throughput's shortfall from the untraced one.
func overheadPct(untraced, traced float64) float64 { return (untraced - traced) / untraced * 100 }

// serveLadder replays the serve workload over the wire (untraced, then with
// a span per request), reads /v1/stats, times the wire against a direct
// MulAdd and the codec alone, and replays the serve classes in-process for
// the multiplier rungs.
func serveLadder(seed int64, res *result, tr *tracer) error {
	ws := serveWorkloads(seed)
	h, err := servetest.Start(zeroConfig(), fmmfam.PaperArch())
	if err != nil {
		return err
	}
	var clients []*serve.Client
	for c := 0; c < conns; c++ {
		cl, tp := wireClient(h.URL)
		defer tp.CloseIdleConnections()
		clients = append(clients, cl)
	}
	defer h.Close()
	for _, t := range warmSet(ws[0].tasks) {
		if err := t.run(clientEngine(clients[0])); err != nil {
			return err
		}
		t.reset()
	}

	const phase = 2.0 // seconds per replay phase
	gc := gcDelta()
	rate := func(logs []*opLog, parts []*result, wall time.Duration) float64 {
		var flops float64
		for c := range logs {
			flops += logs[c].flops
			res.attempted += parts[c].attempted
			res.failed += parts[c].failed
			res.correct = res.correct && parts[c].correct
		}
		return flops / wall.Seconds()
	}
	untraced := rate(serveLoop(ws, clients, phase, nil))
	traced := rate(serveLoop(ws, clients, phase, tr))
	gc(res, "serve")
	res.set("trace.overhead_pct.serve", "%", overheadPct(untraced, traced))

	var st serve.Stats
	tr.timed("serve.Client.Stats", "/v1/stats", 0, tr.newOp(), func() { st, err = clients[0].Stats() })
	if err != nil {
		return err
	}
	jobs := float64(st.Coalesce64.Jobs + st.Coalesce32.Jobs)
	batches := float64(st.Coalesce64.Batches + st.Coalesce32.Batches)
	res.set("serve.coalesce_jobs_per_batch", "ratio", jobs/math.Max(1, batches))
	res.set("serve.server_p50_ms", "ms", float64(st.Endpoints["multiply"].Quantile(0.5).Nanoseconds())/1e6)
	res.set("serve.rejected", "count", float64(st.Admission.Rejected))
	res.set("multiplier.cached_plans.serve", "count", float64(st.Multiplier.CachedPlans+st.Multiplier32.CachedPlans))
	res.engines["fmmserve Multiplier"] = st.Multiplier.Kernel
	res.engines["fmmserve Multiplier32"] = st.Multiplier32.Kernel

	var mid *taskOf[float64]
	for _, t := range ws[0].tasks {
		if s := t.shape(); s.family == "mid" && !s.f32 {
			mid = t.(*taskOf[float64])
			break
		}
	}
	if err := wireOverhead(mid, clients[0], res, tr); err != nil {
		return err
	}
	if err := codecRate(mid, res, tr); err != nil {
		return err
	}

	sum, err := replayClasses("serve", seed, res, tr)
	if err != nil {
		return err
	}
	sum.setMultiplier(res, "serve")
	return sum.engines.close()
}

// wireOverhead sets serve.wire_overhead_ms: median Client.Multiply minus
// median direct MulAdd on a zero-config Multiplier, same mid-size request,
// alternating.
func wireOverhead(t *taskOf[float64], cl *serve.Client, res *result, tr *tracer) error {
	mu := fmmfam.NewMultiplier(zeroConfig(), fmmfam.PaperArch())
	defer mu.Close()
	op := tr.newOp()
	parent, done := tr.group("wire", t.sh.String(), 0, op)
	defer done()
	var wire, direct []float64
	var err error
	for i := 0; i < 16; i++ {
		d := tr.timed("multiplier.MulAdd", "direct", parent, op, func() { err = mu.MulAdd(t.c, t.a, t.b) })
		res.outcome(t, err)
		t.reset()
		if i > 0 { // the first call builds the plan
			direct = append(direct, d.Seconds())
		}
		d = tr.timed("serve.Client.Multiply", "wire", parent, op, func() { err = cl.Multiply(t.c, t.a, t.b) })
		res.outcome(t, err)
		t.reset()
		if err != nil {
			return err
		}
		if i > 0 {
			wire = append(wire, d.Seconds())
		}
	}
	res.set("serve.wire_overhead_ms", "ms", (stats.Median(wire)-stats.Median(direct))*1e3)
	return nil
}

// codecRate sets serve.codec_gbs: bytes encoded and decoded per second by
// AppendRequest, DecodeRequest, AppendResult and DecodeResult on a mid-size
// request and its result.
func codecRate(t *taskOf[float64], res *result, tr *tracer) error {
	op := tr.newOp()
	parent, done := tr.group("codec", t.sh.String(), 0, op)
	defer done()
	var req, out []byte
	var bytes float64
	var total time.Duration
	var err error
	for total < 200*time.Millisecond {
		d := tr.timed("serve.AppendRequest", "", parent, op, func() { req = serve.AppendRequest(req[:0], t.a, t.b) })
		total += d
		var a, b matrix.Mat[float64]
		d = tr.timed("serve.DecodeRequest", "", parent, op, func() { _, a, b, _, _, err = serve.DecodeRequest(req) })
		total += d
		if err != nil {
			return err
		}
		if a.At(1, 1) != t.a.At(1, 1) || b.At(1, 1) != t.b.At(1, 1) {
			return fmt.Errorf("codec: request round trip changed the operands")
		}
		d = tr.timed("serve.AppendResult", "", parent, op, func() { out = serve.AppendResult(out[:0], t.c0) })
		total += d
		var c matrix.Mat[float64]
		d = tr.timed("serve.DecodeResult", "", parent, op, func() { c, err = serve.DecodeResult[float64](out) })
		total += d
		if err != nil {
			return err
		}
		if c.At(1, 1) != t.c0.At(1, 1) {
			return fmt.Errorf("codec: result round trip changed the matrix")
		}
		bytes += 2 * float64(len(req)+len(out))
	}
	res.set("serve.codec_gbs", "GB/s", bytes/total.Seconds()/1e9)
	return nil
}
