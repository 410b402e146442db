// Command perfbench is fmmfam's end-to-end benchmark. It runs one workload
// through the program's zero-configuration paths — the package-level
// fmmfam.Multiply/Multiply32 for the library, and an fmmserve server built
// from DefaultConfig().Parallel() with PaperArch() for the wire — checks
// every output with an independent checker (package check), and prints each
// end-to-end metric. With -trace 1 it instead replays every workload's
// shape classes down the layer ladder (multiplier → fmmexec → gemm →
// kernel, plus the serve codec and wire) with a span around each call and
// prints the per-layer metrics. See README.md.
//
// Usage:
//
//	perfbench -workload square|shapes|serve -seed N -seconds S -trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"fmmfam"
	"fmmfam/internal/stats"
	"fmmfam/serve"
	"fmmfam/serve/servetest"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 3

func main() { os.Exit(run()) }

func run() int {
	workloadName := flag.String("workload", "", "workload: square, shapes or serve")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", 10, "length of the timed interval")
	trace := flag.Int("trace", 0, "1 runs the traced layer ladder instead of the workload")
	spansDir := flag.String("spans", filepath.Join(".bench_build", "spans"), "directory the traced run writes its spans to")
	flag.Parse()

	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, "FMMFAM_") {
			name, _, _ := strings.Cut(kv, "=")
			fmt.Fprintf(os.Stderr, "perfbench: refusing to run with %s set: it changes the program being measured\n", name)
			return 2
		}
	}
	switch *workloadName {
	case "square", "shapes", "serve":
	default:
		fmt.Fprintf(os.Stderr, "perfbench: -workload %q: want square, shapes or serve\n", *workloadName)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: -trace %d: want 0 or 1\n", *trace)
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	var res *result
	var err error
	if *trace == 1 {
		tr := newTracer()
		res, err = runLadder(*seed, tr)
		if err == nil {
			err = tr.write(filepath.Join(*spansDir, fmt.Sprintf("%s-%d.jsonl", *workloadName, *seed)))
		}
	} else if *workloadName == "serve" {
		res, err = runServe(*seed, *seconds)
	} else {
		res, err = runLibrary(*workloadName, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	printHost(res.engines)
	for _, line := range res.notes {
		fmt.Println(line)
	}
	out, err := res.json()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// zeroConfig is the configuration the package-level functions and fmmserve
// use when nothing is configured.
func zeroConfig() fmmfam.Config { return fmmfam.DefaultConfig().Parallel() }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome.
type result struct {
	correct           bool
	attempted, failed int
	metrics           map[string]metric
	engines           map[string]string // engine → resolved kernel
	notes             []string          // lines printed before the result
}

func newResult() *result {
	return &result{correct: true, metrics: make(map[string]metric), engines: make(map[string]string)}
}

func (r *result) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

func (r *result) json() ([]byte, error) {
	for name, m := range r.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics})
}

// outcome records one checked operation. A non-finite operation that fails
// its check is the named fault: counted as failed, correct unchanged. Any
// other failure makes the run incorrect.
func (r *result) outcome(t task, err error) bool {
	r.attempted++
	rep := t.verify()
	if err == nil && rep.OK() {
		return true
	}
	r.failed++
	if err != nil || t.shape().bad == badNone {
		r.correct = false
		fmt.Fprintf(os.Stderr, "perfbench: %v: err=%v check=%v\n", t.shape(), err, rep)
	}
	return false
}

// opLog accumulates the timed operations of a run.
type opLog struct {
	lat    []float64 // ms; +Inf for a failed operation
	flops  float64
	ok     int
	bad    map[string]int // named-fault operations by kind
	rounds int            // whole rounds run; 0 where rounds are per connection
}

func (l *opLog) add(t task, d time.Duration, ok bool) {
	if !ok {
		l.lat = append(l.lat, math.Inf(1))
		if t.shape().bad != badNone {
			if l.bad == nil {
				l.bad = make(map[string]int)
			}
			l.bad[t.shape().String()]++
		}
		return
	}
	l.lat = append(l.lat, float64(d.Nanoseconds())/1e6)
	l.flops += t.shape().flops()
	l.ok++
}

func (l *opLog) merge(o *opLog) {
	l.lat = append(l.lat, o.lat...)
	l.flops += o.flops
	l.ok += o.ok
	for k, v := range o.bad {
		if l.bad == nil {
			l.bad = make(map[string]int)
		}
		l.bad[k] += v
	}
}

// report sets the end-to-end metrics from the log and the timed wall time.
func (l *opLog) report(r *result, wall time.Duration, setups []float64) {
	r.set("setup_s", "s", stats.Median(setups))
	r.set("eff_gflops", "GFLOPS", l.flops/wall.Seconds()/1e9)
	r.set("ops_per_s", "1/s", float64(l.ok)/wall.Seconds())
	r.set("p50_ms", "ms", stats.Median(l.lat))
	r.set("peak_rss_mb", "MB", peakRSSMB())
	if len(l.bad) > 0 {
		keys := make([]string, 0, len(l.bad))
		n := 0
		for k, v := range l.bad {
			keys = append(keys, fmt.Sprintf("%s ×%d", k, v))
			n += v
		}
		sort.Strings(keys)
		count := fmt.Sprintf("%d of %d operations", n, len(l.lat))
		if l.rounds > 0 {
			// The count grows with the rounds a run has time for; the count
			// per round does not.
			count = fmt.Sprintf("%.4g per round (%s over %d rounds)", float64(n)/float64(l.rounds), count, l.rounds)
		}
		r.notes = append(r.notes, fmt.Sprintf("fault: FMM plans turn ±Inf into NaN and spread NaN beyond the classical product's row or column: %s returned cells of the wrong class (%s)",
			count, strings.Join(keys, "; ")))
	}
}

// runLibrary runs square or shapes through the package-level functions.
func runLibrary(name string, seed int64, seconds float64) (*result, error) {
	res := newResult()
	w, err := buildWorkload(name, seed, 0)
	if err != nil {
		return nil, err
	}
	// Set-up: rep 0 is the package-level path itself (its first call builds
	// the shared default Multiplier); later reps build the same engines
	// afresh with the recipe the package uses.
	warm := warmSet(w.tasks)
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		runtime.GC()
		start := time.Now()
		eng := packageEngine
		var mu *fmmfam.Multiplier
		var mu32 *fmmfam.Multiplier32
		if rep > 0 {
			mu = fmmfam.NewMultiplier(zeroConfig(), fmmfam.PaperArch())
			mu32 = fmmfam.NewMultiplier32(zeroConfig(), fmmfam.PaperArch())
			eng = engine{mul64: mu.MulAdd, mul32: mu32.MulAdd}
		}
		for _, t := range warm {
			if err := t.run(eng); err != nil {
				return nil, fmt.Errorf("warm-up %v: %w", t.shape(), err)
			}
		}
		setups = append(setups, time.Since(start).Seconds())
		for _, t := range warm {
			t.reset()
		}
		if rep > 0 {
			res.engines["Multiplier"] = mu.Stats().Kernel
			res.engines["Multiplier32"] = mu32.Stats().Kernel
			if err := errors.Join(mu.Close(), mu32.Close()); err != nil {
				return nil, err
			}
		}
	}
	runtime.GC()

	var log opLog
	var busy time.Duration
	for ; log.rounds == 0 || busy.Seconds() < seconds; log.rounds++ {
		for _, i := range w.rounds(log.rounds) {
			t := w.tasks[i]
			start := time.Now()
			err := t.run(packageEngine)
			d := time.Since(start)
			busy += d
			log.add(t, d, res.outcome(t, err))
			t.reset()
		}
	}
	log.report(res, busy, setups)
	return res, nil
}

// wireClient returns a serve.Client holding one keep-alive connection of
// its own, and the transport to close when done.
func wireClient(url string) (*serve.Client, *http.Transport) {
	tr := &http.Transport{MaxIdleConnsPerHost: 1}
	return &serve.Client{BaseURL: url, HTTPClient: &http.Client{Transport: tr}}, tr
}

func clientEngine(cl *serve.Client) engine {
	return engine{mul64: cl.Multiply, mul32: cl.Multiply32}
}

// conns is the serve workload's closed-loop connection count: the most
// load a 2-core host generates without measuring its own scheduler.
const conns = 2

// runServe runs the serve workload: conns closed-loop clients against an
// in-process fmmserve server.
func runServe(seed int64, seconds float64) (*result, error) {
	res := newResult()
	ws := serveWorkloads(seed)
	warm := warmSet(ws[0].tasks)
	var setups []float64
	var h *servetest.Harness
	var clients []*serve.Client
	var transports []*http.Transport
	closeAll := func() error {
		for _, tr := range transports {
			tr.CloseIdleConnections()
		}
		if h == nil {
			return nil
		}
		return h.Close()
	}
	for rep := 0; rep < setupReps; rep++ {
		if err := closeAll(); err != nil {
			return nil, err
		}
		clients, transports = nil, nil
		runtime.GC()
		start := time.Now()
		var err error
		h, err = servetest.Start(zeroConfig(), fmmfam.PaperArch())
		if err != nil {
			return nil, err
		}
		for c := 0; c < conns; c++ {
			cl, tr := wireClient(h.URL)
			clients, transports = append(clients, cl), append(transports, tr)
		}
		for _, t := range warm {
			if err := t.run(clientEngine(clients[0])); err != nil {
				closeAll()
				return nil, fmt.Errorf("warm-up %v: %w", t.shape(), err)
			}
		}
		setups = append(setups, time.Since(start).Seconds())
		for _, t := range warm {
			t.reset()
		}
	}
	defer closeAll()
	st, err := clients[0].Stats()
	if err != nil {
		return nil, err
	}
	res.engines["fmmserve Multiplier"] = st.Multiplier.Kernel
	res.engines["fmmserve Multiplier32"] = st.Multiplier32.Kernel
	runtime.GC()

	logs, parts, wall := serveLoop(ws, clients, seconds, nil)
	var log opLog
	for c := range logs {
		log.merge(logs[c])
		res.attempted += parts[c].attempted
		res.failed += parts[c].failed
		res.correct = res.correct && parts[c].correct
	}
	log.report(res, wall, setups)
	return res, closeAll()
}

// serveWorkloads generates each connection's serve operations.
func serveWorkloads(seed int64) []*workload {
	ws := make([]*workload, conns)
	for c := range ws {
		ws[c], _ = buildWorkload("serve", seed, c) // "serve" is always known
	}
	return ws
}

// serveLoop runs one closed loop per connection until seconds have passed
// and returns each connection's log and outcome counts and the wall time.
// With a tracer, each request is a span.
func serveLoop(ws []*workload, clients []*serve.Client, seconds float64, tr *tracer) ([]*opLog, []*result, time.Duration) {
	logs := make([]*opLog, len(ws))
	parts := make([]*result, len(ws))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for c := range ws {
		logs[c], parts[c] = new(opLog), newResult()
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			eng := clientEngine(clients[c])
			w := ws[c]
			for r := 0; ; r++ {
				for _, i := range w.rounds(r) {
					if time.Now().After(deadline) {
						return
					}
					t := w.tasks[i]
					var err error
					d := tr.timed("serve.Client.Multiply", t.shape().String(), 0, tr.newOp(), func() { err = t.run(eng) })
					logs[c].add(t, d, parts[c].outcome(t, err))
					t.reset()
				}
			}
		}(c)
	}
	wg.Wait()
	return logs, parts, time.Since(start)
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB, falling
// back to the Go runtime's total obtained memory where /proc is absent.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if f := strings.Fields(rest); len(f) > 0 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// printHost prints the host context of the run.
func printHost(engines map[string]string) {
	host := struct {
		CPU        fmmfam.CPUInfo        `json:"cpu"`
		Kernels    []fmmfam.KernelStatus `json:"kernels"`
		Engines    map[string]string     `json:"engine_kernels"`
		Go         string                `json:"go"`
		GOMAXPROCS int                   `json:"gomaxprocs"`
	}{fmmfam.HostCPU(), fmmfam.KernelStatuses(), engines, runtime.Version(), runtime.GOMAXPROCS(0)}
	b, err := json.Marshal(host)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: host context: %v\n", err)
		return
	}
	fmt.Println("host " + string(b))
}
