// Command steady measures how far the benchmark's end-to-end metrics move
// from run to run. It runs every workload of BENCHMARK.json -runs times,
// each time with another seed and with the workload order alternating, and
// prints each metric's median, quartiles and spread (interquartile range
// over the median) against the metric's bound. With -sets 2 it repeats the
// whole set with fresh seeds and reports how much worse the second set's
// median is than the first's, and whether every run failed the same share
// of its operations.
//
// Usage (from the repository root, after building the benchmark):
//
//	steady -bench .bench_build/perfbench -runs 10 -sets 2
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"

	"fmmfam/internal/stats"
)

type config struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

type runResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	bench := flag.String("bench", ".bench_build/perfbench", "benchmark binary")
	cfgPath := flag.String("config", "BENCHMARK.json", "benchmark description")
	runs := flag.Int("runs", 10, "runs per workload per set")
	sets := flag.Int("sets", 1, "sets of runs to compare")
	seed0 := flag.Int64("seed", 1, "first seed")
	flag.Parse()

	raw, err := os.ReadFile(*cfgPath)
	if err != nil {
		fatal(err)
	}
	var cfg config
	if err := json.Unmarshal(raw, &cfg); err != nil {
		fatal(fmt.Errorf("%s: %w", *cfgPath, err))
	}
	var workloads []string
	for _, w := range cfg.Workloads {
		workloads = append(workloads, w.Name)
	}

	// values[set][workload][metric] and failed shares[set][workload].
	values := make([]map[string]map[string][]float64, *sets)
	shares := make([]map[string][]string, *sets)
	for s := 0; s < *sets; s++ {
		values[s] = make(map[string]map[string][]float64)
		shares[s] = make(map[string][]string)
		for i := 0; i < *runs; i++ {
			order := append([]string(nil), workloads...)
			if i%2 == 1 {
				for l, r := 0, len(order)-1; l < r; l, r = l+1, r-1 {
					order[l], order[r] = order[r], order[l]
				}
			}
			seed := *seed0 + int64(s*1000+i)
			for _, w := range order {
				res, err := runOnce(*bench, w, seed, cfg.RunSeconds)
				if err != nil {
					fatal(fmt.Errorf("%s seed %d: %w", w, seed, err))
				}
				if !res.Correct {
					fatal(fmt.Errorf("%s seed %d: incorrect output", w, seed))
				}
				if values[s][w] == nil {
					values[s][w] = make(map[string][]float64)
				}
				for name, m := range res.Metrics {
					values[s][w][name] = append(values[s][w][name], m.Value)
				}
				shares[s][w] = append(shares[s][w], fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
				fmt.Fprintf(os.Stderr, "set %d run %d %s seed %d: failed %d/%d\n", s+1, i+1, w, seed, res.Failed, res.Attempted)
			}
		}
	}

	ok := true
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	for _, w := range workloads {
		fmt.Fprintf(tw, "\n%s\tmedian\tq1\tq3\tspread\tbound\tspread/bound", w)
		if *sets > 1 {
			fmt.Fprint(tw, "\tmedian set 2\tworse by\tsets agree")
		}
		fmt.Fprintln(tw)
		for _, m := range cfg.EndToEnd {
			vs := values[0][w][m.Name]
			if len(vs) == 0 {
				fmt.Fprintf(tw, "%s\tmissing\n", m.Name)
				ok = false
				continue
			}
			med := stats.Median(vs)
			q1, q3 := quartiles(vs)
			spread := (q3 - q1) / med
			fmt.Fprintf(tw, "%s (%s)\t%.4g\t%.4g\t%.4g\t%.3f\t%.2f\t%.2f", m.Name, m.Unit, med, q1, q3, spread, m.Bound, spread/m.Bound)
			if spread > m.Bound {
				ok = false
			}
			if *sets > 1 {
				med2 := stats.Median(values[1][w][m.Name])
				worse := (med2 - med) / med
				if m.Better == "higher" {
					worse = (med - med2) / med
				}
				agree := worse <= m.Bound
				ok = ok && agree
				fmt.Fprintf(tw, "\t%.4g\t%+.3f\t%v", med2, worse, agree)
			}
			fmt.Fprintln(tw)
		}
		same := true
		var first string
		for s := range shares {
			for _, sh := range shares[s][w] {
				if first == "" {
					first = sh
				}
				same = same && share(sh) == share(first)
			}
		}
		ok = ok && same
		fmt.Fprintf(tw, "failed share\t%s\tidentical in every run: %v\n", first, same)
	}
	tw.Flush()
	if !ok {
		fmt.Println("\nsteady: NOT within bounds")
		os.Exit(1)
	}
	fmt.Println("\nsteady: within bounds")
}

// runOnce runs the benchmark once and parses its last line.
func runOnce(bench, w string, seed int64, seconds int) (runResult, error) {
	cmd := exec.Command(bench, "--workload", w, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return runResult{}, err
	}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res runResult
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return runResult{}, fmt.Errorf("last line %q: %w", last, err)
	}
	return res, nil
}

// share parses "failed/attempted" into the failed fraction, exactly as a
// pair so equal fractions of different run lengths compare equal.
func share(s string) [2]int {
	var f, a int
	fmt.Sscanf(s, "%d/%d", &f, &a)
	g := gcd(f, a)
	if g == 0 {
		return [2]int{f, a}
	}
	return [2]int{f / g, a / g}
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// quartiles returns the first and third quartiles by the exclusive method
// (Python's statistics.quantiles(values, n=4), the method the acceptance
// check uses). internal/stats has medians but no quantiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "steady: %v\n", err)
	os.Exit(2)
}
