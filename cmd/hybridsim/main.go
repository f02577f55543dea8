// Command hybridsim runs MapReduce jobs on the paper's architectures.
//
// Single job on one architecture:
//
//	hybridsim -app wordcount -size 32GB -arch up-OFS
//	hybridsim -app grep -size 8GB -arch all      # compare all four
//
// Trace experiment (§V) from a trace file or a fresh synthetic trace:
//
//	hybridsim -input trace.csv
//	hybridsim -jobs 6000                          # generate and run
//
// The trace mode runs the workload on the hybrid architecture and on the
// THadoop/RHadoop baselines and prints per-class summaries.
//
// Resilience experiment: any of -faults, -failures or -stragglers turns the
// trace mode into a fault replay comparing the failure-aware hybrid, the
// static hybrid, both baselines and a clean reference:
//
//	hybridsim -jobs 600 -faults demo
//	hybridsim -jobs 600 -faults 'up:crash@30m;up:recover@4h'
//	hybridsim -jobs 600 -faults 'mtbf:seed=1,mttr=30m,out=6h' -failures 0.05
//
// Gray failures and graceful degradation: -degrade merges a slowdown
// schedule (cpu/disk factors, NIC throttles, rack partitions) into the fault
// timeline, -blacklist adds the blacklist+cloning hybrid replay, and
// -watchdog bounds each replay's simulation kernel:
//
//	hybridsim -jobs 600 -degrade demo
//	hybridsim -jobs 600 -faults demo -degrade 'up:cpu-slow@1hx1*2.0;up:cpu-ok@6h'
//	hybridsim -jobs 600 -degrade demo -failures 0.05 -blacklist -watchdog events=5e7,simtime=240h
//
// Observability: -trace, -chrometrace, -metrics and -audit attach the
// deterministic observability sinks to the hybrid replay and export them on
// exit. All stamps are simulated time, so the files are byte-identical
// across runs of the same command:
//
//	hybridsim -jobs 600 -faults demo -trace spans.jsonl -metrics m.json
//	hybridsim -jobs 600 -faults demo -chrometrace chrome.json  # chrome://tracing
//	hybridsim -jobs 600 -faults demo -audit decisions.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"hybridmr/internal/apps"
	"hybridmr/internal/core"
	"hybridmr/internal/faults"
	"hybridmr/internal/figures"
	"hybridmr/internal/mapreduce"
	"hybridmr/internal/obs"
	"hybridmr/internal/stats"
	"hybridmr/internal/sweep"
	"hybridmr/internal/units"
	"hybridmr/internal/workload"
)

func main() {
	var (
		app        = flag.String("app", "", "application: wordcount, grep, sort, dfsio-write, dfsio-read")
		size       = flag.String("size", "", "input size, e.g. 32GB")
		arch       = flag.String("arch", "all", "architecture: up-OFS, up-HDFS, out-OFS, out-HDFS, or all")
		input      = flag.String("input", "", "trace file (CSV or JSON) to run the §V experiment on")
		jobs       = flag.Int("jobs", 0, "generate a synthetic trace with this many jobs and run the §V experiment")
		seed       = flag.Int64("seed", 2009, "seed for generated traces")
		balance    = flag.Bool("balance", false, "enable the §VII load-balancing extension")
		hist       = flag.Bool("hist", false, "print execution-time histograms in trace mode")
		faultSpec  = flag.String("faults", "", "fault schedule: 'demo', 'mtbf:seed=S,...' or 'cluster:kind@time[xN];...' — runs the resilience experiment in trace mode")
		degrade    = flag.String("degrade", "", "gray-failure schedule: 'demo' (the gray reference scenario) or the -faults syntax with slowdown kinds (cpu-slow, nic-slow, ...) — merged with -faults")
		blacklist  = flag.Bool("blacklist", false, "add the Hybrid-FA-BL resilience replay: flaky-half blacklisting plus speculative straggler cloning")
		watchdog   = flag.String("watchdog", "", "per-replay simulation budget 'events=N,simtime=D'; an over-budget replay renders as a failed row instead of running away")
		failures   = flag.Float64("failures", 0, "per-task-attempt failure probability in [0,1)")
		stragglers = flag.Float64("stragglers", 0, "straggler duration-jitter fraction in [0,10]")
		speculate  = flag.Bool("speculate", false, "enable speculative execution for injected stragglers")
		injectSeed = flag.Int64("inject-seed", 1, "seed for failure/straggler injection")
		parallel   = flag.Int("parallel", 0, "sweep worker pool size (0 = GOMAXPROCS)")
		traceOut   = flag.String("trace", "", "write the hybrid replay's span trace (JSONL) to this file")
		chromeOut  = flag.String("chrometrace", "", "write the span trace as a Chrome trace_event JSON to this file")
		metricsOut = flag.String("metrics", "", "write the metrics registry snapshot (JSON) to this file")
		auditOut   = flag.String("audit", "", "write the scheduler decision audit (JSONL) to this file")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	if *parallel != 0 {
		sweep.SetDefaultWorkers(*parallel)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}
	inj := core.Inject{FailureRate: *failures, StragglerFrac: *stragglers, Speculate: *speculate, Seed: *injectSeed}
	sinks := obsSinks{trace: *traceOut, chrome: *chromeOut, metrics: *metricsOut, audit: *auditOut}
	budget, err := sweep.ParseBudget(*watchdog)
	if err != nil {
		fatal(err)
	}
	opts := figures.ResilienceOpts{FABlacklist: *blacklist, Watchdog: budget}

	switch {
	case *input != "" || *jobs > 0:
		if *faultSpec != "" || *degrade != "" || inj.FailureRate != 0 || inj.StragglerFrac != 0 {
			runResilience(*input, *jobs, *seed, *faultSpec, *degrade, inj, sinks, opts)
			return
		}
		runTrace(*input, *jobs, *seed, *balance, *hist, sinks)
	case *app != "" && *size != "":
		runSingle(*app, *size, *arch)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// obsSinks is the observability export configuration: one output path per
// sink, empty meaning off.
type obsSinks struct {
	trace, chrome, metrics, audit string
}

// set builds the obs.Set matching the requested exports. The span tracer
// serves both the JSONL and the Chrome export.
func (s obsSinks) set() obs.Set {
	var o obs.Set
	if s.trace != "" || s.chrome != "" {
		o.Trace = obs.NewTracer()
	}
	if s.metrics != "" {
		o.Metrics = obs.NewRegistry()
	}
	if s.audit != "" {
		o.Audit = obs.NewAudit()
	}
	return o
}

// write exports every requested sink to its file.
func (s obsSinks) write(o obs.Set) {
	export := func(path string, emit func(io.Writer) error) {
		if path == "" {
			return
		}
		f, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		if err := emit(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	export(s.trace, o.Trace.WriteJSONL)
	export(s.chrome, o.Trace.WriteChrome)
	export(s.metrics, o.Metrics.WriteSnapshot)
	export(s.audit, o.Audit.WriteJSONL)
}

// runResilience replays the trace under a fault schedule and injection,
// comparing the failure-aware hybrid against static Algorithm 1 and the
// baselines. A -degrade gray schedule is merged into the -faults one.
func runResilience(path string, jobs int, seed int64, spec, graySpec string, inj core.Inject, sinks obsSinks, opts figures.ResilienceOpts) {
	sched, err := buildSchedule(spec, graySpec)
	if err != nil {
		fatal(err)
	}
	trace, err := loadTrace(path, jobs, seed)
	if err != nil {
		fatal(err)
	}
	fmt.Print(workload.Summarize(trace))
	fmt.Println()
	o := sinks.set()
	r, err := figures.RunResilienceOpts(mapreduce.DefaultCalibration(), trace, sched, inj, o, nil, opts)
	if err != nil {
		fatal(err)
	}
	fmt.Print(r.Render())
	fmt.Print(r.Footer())
	sinks.write(o)
}

// buildSchedule parses the -faults and -degrade specs and merges them into
// one timeline. For -degrade, "demo" means the gray reference scenario.
func buildSchedule(spec, graySpec string) (*faults.Schedule, error) {
	var sched *faults.Schedule
	if spec != "" {
		var err error
		sched, err = faults.ParseSchedule(spec)
		if err != nil {
			return nil, fmt.Errorf("-faults: %w", err)
		}
	}
	if graySpec == "" {
		return sched, nil
	}
	gray := faults.GrayDemo()
	if graySpec != "demo" {
		var err error
		gray, err = faults.ParseSchedule(graySpec)
		if err != nil {
			return nil, fmt.Errorf("-degrade: %w", err)
		}
	}
	merged, err := faults.Merge(sched, gray)
	if err != nil {
		return nil, fmt.Errorf("-faults/-degrade: %w", err)
	}
	return merged, nil
}

func runSingle(appName, sizeStr, archName string) {
	prof, err := apps.ByName(appName)
	if err != nil {
		fatal(err)
	}
	size, err := units.ParseBytes(sizeStr)
	if err != nil {
		fatal(err)
	}
	cal := mapreduce.DefaultCalibration()
	var arches []mapreduce.Arch
	if archName == "all" {
		arches = mapreduce.Arches()
	} else {
		found := false
		for _, a := range mapreduce.Arches() {
			if strings.EqualFold(a.String(), archName) {
				arches = append(arches, a)
				found = true
			}
		}
		if !found {
			fatal(fmt.Errorf("unknown architecture %q", archName))
		}
	}
	sched := core.MustScheduler(core.PaperCrossPoints())
	explain := sched.ExplainDecision(workload.Job{ID: prof.Name, App: prof, Input: size, RatioKnown: true})
	fmt.Printf("Algorithm 1: %s\n\n", explain)
	fmt.Printf("%-10s %10s %10s %10s %10s %6s %7s\n",
		"arch", "exec", "map", "shuffle", "reduce", "waves", "spill")
	for _, a := range arches {
		p, err := mapreduce.NewArch(a, cal)
		if err != nil {
			fatal(err)
		}
		r := p.RunIsolated(mapreduce.Job{ID: "cli", App: prof, Input: size})
		if r.Err != nil {
			fmt.Printf("%-10s %s\n", p.Name, r.Err)
			continue
		}
		fmt.Printf("%-10s %9.1fs %9.1fs %9.1fs %9.1fs %6d %7v\n",
			p.Name, r.Exec.Seconds(), r.MapPhase.Seconds(), r.ShufflePhase.Seconds(),
			r.ReducePhase.Seconds(), r.MapWaves, r.Spilled)
	}
}

// loadTrace reads the trace file when given, otherwise generates a synthetic
// trace preserving the full 6000-job day's arrival rate. File errors come
// back wrapped with the path, so main can exit with a one-line diagnostic.
func loadTrace(path string, jobs int, seed int64) ([]workload.Job, error) {
	if path == "" {
		cfg := workload.DefaultConfig()
		cfg.Jobs = jobs
		cfg.Seed = seed
		cfg.Duration = time.Duration(float64(cfg.Duration) * float64(jobs) / 6000)
		return workload.Generate(cfg)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("-input: %w", err)
	}
	defer f.Close()
	var trace []workload.Job
	if strings.HasSuffix(path, ".json") {
		trace, err = workload.ReadJSON(f)
	} else {
		trace, err = workload.ReadCSV(f)
	}
	if err != nil {
		return nil, fmt.Errorf("-input %s: %w", path, err)
	}
	if len(trace) == 0 {
		return nil, fmt.Errorf("-input %s: trace holds no jobs", path)
	}
	return trace, nil
}

func runTrace(path string, jobs int, seed int64, balance, hist bool, sinks obsSinks) {
	trace, err := loadTrace(path, jobs, seed)
	if err != nil {
		fatal(err)
	}
	cal := mapreduce.DefaultCalibration()
	hybrid, err := core.NewHybrid(cal)
	if err != nil {
		fatal(err)
	}
	if balance {
		bal, err := core.NewLoadBalancer(1.0)
		if err != nil {
			fatal(err)
		}
		hybrid.Balance = bal
	}
	// Routing and execution times are indexed by trace position.
	up := make([]bool, len(trace))
	nUp := 0
	for i := range trace {
		if up[i] = hybrid.Sched.Decide(trace[i]) == core.ScaleUp; up[i] {
			nUp++
		}
	}
	fmt.Print(workload.Summarize(trace))
	fmt.Printf("routing: %d scale-up, %d scale-out\n\n", nUp, len(trace)-nUp)

	// The hybrid replays through its one driver; the sinks only observe, so
	// an observed run reports what a bare run reports.
	o := sinks.set()
	collectHy := func() []float64 {
		results, err := hybrid.RunFaulted(trace, core.FaultRun{Obs: o})
		if err != nil {
			fatal(err)
		}
		exec, err := figures.ExecSeconds(trace, func(i int) *mapreduce.Result { return &results[i].Result })
		if err != nil {
			fatal(fmt.Errorf("hybrid %w", err))
		}
		return exec
	}
	collect := func(p *mapreduce.Platform) []float64 {
		results := core.RunBaseline(p, trace, mapreduce.Fair)
		exec, err := figures.ExecSeconds(trace, func(i int) *mapreduce.Result { return &results[i] })
		if err != nil {
			fatal(fmt.Errorf("%s %w", p.Name, err))
		}
		return exec
	}
	th, err := mapreduce.NewTHadoop(cal)
	if err != nil {
		fatal(err)
	}
	rh, err := mapreduce.NewRHadoop(cal)
	if err != nil {
		fatal(err)
	}
	results := []struct {
		name string
		exec []float64
	}{
		{"Hybrid", collectHy()},
		{"THadoop", collect(th)},
		{"RHadoop", collect(rh)},
	}
	for _, class := range []struct {
		name string
		up   bool
	}{{"scale-up jobs", true}, {"scale-out jobs", false}} {
		fmt.Printf("== %s\n", class.name)
		for _, r := range results {
			c := stats.NewCDF(nil)
			for i, e := range r.exec {
				if up[i] == class.up {
					c.Add(e)
				}
			}
			fmt.Printf("  %-8s %s\n", r.name, c.Summarize())
		}
	}
	if hist {
		for _, r := range results {
			h, err := stats.NewHistogram(1, 1e5, 2)
			if err != nil {
				fatal(err)
			}
			for _, e := range r.exec {
				h.Add(e)
			}
			fmt.Printf("\n== %s execution-time histogram (seconds)\n%s", r.name, h.Render(50))
		}
	}
	sinks.write(o)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "hybridsim: %v\n", err)
	os.Exit(1)
}
