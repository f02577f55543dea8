// Command perfbench is the repository's benchmark: end-to-end metrics a
// user of the simulator and the engine waits on, and per-layer metrics from
// a separate traced run. It runs one workload as a closed loop with one
// client for a fixed wall time, checks every op's output, and prints one
// JSON object as the last line of its standard output.
//
// Run it from the module root through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload fb-day --seed 1 --seconds 20 --trace 0
//
// README.md describes the workloads and the metrics; BENCHMARK.json at the
// module root lists them.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupSamples is how many times a run sets up (itself and fresh child
// processes) for the median setup_s.
const setupSamples = 5

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name      = flag.String("workload", "", "workload: fb-day, faulted-report or engine-mix")
		seed      = flag.Int64("seed", devSeed, "seed the workload's inputs are generated from")
		seconds   = flag.Float64("seconds", 30, "wall time the ops are measured for")
		trace     = flag.Int("trace", 0, "1 runs the traced run, which reports the per-layer metrics")
		setupOnly = flag.Bool("setup-only", false, "set up once and print the set-up seconds (used for the setup_s samples)")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *setupOnly); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced, setupOnly bool) error {
	c := config{
		workload: name, seed: seed, traced: traced, p: defaultParams(), log: os.Stderr,
		duration: time.Duration(seconds * float64(time.Second)),
	}
	if setupOnly {
		// A failed set-up op is reported on stderr; the parent's own
		// set-up op counts it.
		_, o, err := setUp(c, nil)
		if err != nil {
			return err
		}
		fmt.Println(o.setup.Seconds())
		return nil
	}
	o, err := runBench(c)
	if err != nil {
		return err
	}
	var (
		defs   []metricDef
		values map[string]float64
	)
	if traced {
		defs = perLayer
		if values, err = o.perLayerMetrics(name); err != nil {
			return err
		}
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", name, seed))
		if err := o.spans.write(path); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(o.spans.spans), path)
	} else {
		defs = endToEnd
		setup, err := medianSetup(name, seed, o.setup)
		if err != nil {
			return err
		}
		rss, err := peakRSSMB()
		if err != nil {
			return err
		}
		values = o.endToEndMetrics(setup, rss)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d ops attempted (%d timed, %d traced), %d failed\n",
		name, seed, o.attempted, len(o.lat), len(o.traced), o.failed)
	rep := report{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		rep.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	out, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// medianSetup sets the workload up again in fresh child processes, so each
// set-up starts with cold caches and pools as the run's own did, and
// returns the median of all the set-up times.
func medianSetup(name string, seed int64, own time.Duration) (time.Duration, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	samples := []time.Duration{own}
	for len(samples) < setupSamples {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		cmd := exec.CommandContext(ctx, self, "--workload", name, "--seed", strconv.FormatInt(seed, 10), "--setup-only")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		cancel()
		if err != nil {
			return 0, fmt.Errorf("set-up child: %w", err)
		}
		s, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
		if err != nil {
			return 0, fmt.Errorf("set-up child printed %q: %w", out, err)
		}
		samples = append(samples, time.Duration(s*float64(time.Second)))
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return samples[len(samples)/2], nil
}
