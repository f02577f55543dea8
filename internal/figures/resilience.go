package figures

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"hybridmr/internal/core"
	"hybridmr/internal/faults"
	"hybridmr/internal/mapreduce"
	"hybridmr/internal/obs"
	"hybridmr/internal/stats"
	"hybridmr/internal/sweep"
	"hybridmr/internal/textplot"
	"hybridmr/internal/workload"
)

// ArchResilience summarizes one architecture's behavior under a fault
// schedule.
type ArchResilience struct {
	Name       string
	OK, Failed int
	// Makespan is the last job's completion instant.
	Makespan time.Duration
	// MeanS, P50S and P99S summarize successful jobs' execution seconds.
	MeanS, P50S, P99S float64
	// TaskRetries totals re-executed task attempts (crash kills and
	// injected failures).
	TaskRetries int
	// JobRetries counts jobs that needed more than one submission
	// (failure-aware hybrid only).
	JobRetries int
	// Reroutes counts jobs the failure-aware scheduler moved off their
	// degraded preferred half (failure-aware hybrid only).
	Reroutes int
	// Err is set when the replay itself failed — a watchdog budget stop or
	// a panic, recovered as a *sweep.PointError. The other fields are zero
	// and Render shows the row as dashes with the error listed below the
	// table; the sibling replays' results stand.
	Err error
}

// Resilience is the fault-replay experiment: the FB-2009 trace under one
// fault schedule on five architectures — the hybrid with the failure-aware
// scheduler, the hybrid with the paper's static Algorithm 1, the two
// traditional baselines, and a clean (fault-free) hybrid run as the
// degradation reference.
type Resilience struct {
	Jobs     int
	Schedule *faults.Schedule
	Inject   core.Inject

	FailureAware, Static, THadoop, RHadoop, Clean ArchResilience

	// FABlacklist is the optional sixth replay (ResilienceOpts.FABlacklist):
	// the failure-aware hybrid with flaky-half blacklisting and speculative
	// straggler cloning on top. Nil unless the experiment asked for it.
	FABlacklist *ArchResilience

	// TotalEvents counts the simulation events the kernel executed across
	// all replays (deterministic); Wall is the wall-clock time the
	// replays took (not deterministic). Both feed Footer, never Render —
	// Render is golden-snapshotted and must stay byte-identical.
	TotalEvents uint64
	Wall        time.Duration
}

// jobOutcome normalizes hybrid and baseline results for summarizing.
type jobOutcome struct {
	exec        time.Duration
	end         time.Duration
	failed      bool
	taskRetries int
	attempts    int
	rerouted    bool
}

// ResilienceOpts selects the robustness extras of the resilience experiment.
// The zero value reproduces the classic five-replay run byte for byte.
type ResilienceOpts struct {
	// FABlacklist adds a sixth replay, "Hybrid-FA-BL": the failure-aware
	// hybrid with flaky-half blacklisting and speculative straggler cloning
	// enabled — the full graceful-degradation response.
	FABlacklist bool
	// Watchdog bounds every replay's simulation kernel. An over-budget (or
	// panicking) replay is isolated: its row renders as failed with a typed
	// *sweep.PointError and the remaining replays' results stand. The zero
	// budget runs unguarded.
	Watchdog sweep.Budget
	// Invariants attaches a fresh mapreduce.InvariantChecker to every
	// replay, assert-only: a violation fails the whole experiment with the
	// checker's error instead of rendering a report that silently breaks a
	// simulator contract. Results and goldens are unchanged when the
	// replays are clean — the checker only observes.
	Invariants bool
}

// RunResilienceOpts replays an already-built trace under the fault schedule
// on all five architectures (six with opts.FABlacklist). The replays are
// independent whole-cluster simulations over the shared read-only job slice,
// so they run concurrently on the runner's pool; the report is
// byte-identical regardless of worker count. A nil runner uses the
// process-wide default.
//
// The sinks in o attach to the headline failure-aware hybrid replay (the
// architecture the experiment argues for), and the runner's cache hit/miss
// counters mirror into the registry for the duration of the run; an empty
// Set observes nothing. Callers wanting deterministic cache counters must
// pass a fresh runner — the default runner's cache is shared process-wide,
// so its hit/miss split depends on what ran before.
func RunResilienceOpts(cal mapreduce.Calibration, jobs []workload.Job, sched *faults.Schedule, inj core.Inject, o obs.Set, runner *sweep.Runner, opts ResilienceOpts) (*Resilience, error) {
	// The hybrid and both baseline platforms are the report's shared prefix:
	// memoized per calibration (setup.go) and read-only, so all 5–7
	// concurrent replays share one assembly instead of rebuilding it.
	arch, err := SharedArches(cal)
	if err != nil {
		return nil, err
	}
	hybrid := arch.Hybrid
	if runner == nil {
		runner = sweep.Default()
	}
	if o.Metrics != nil {
		// Register before the replays so the counters lead the snapshot;
		// detach when the pool is idle again.
		runner.Cache().Observe(o.Metrics.Counter("sweep.cache.hits"), o.Metrics.Counter("sweep.cache.misses"))
		defer runner.Cache().Observe(nil, nil)
	}

	fromHybrid := func(rs []core.JobResult) []jobOutcome {
		out := make([]jobOutcome, len(rs))
		for i, r := range rs {
			out[i] = jobOutcome{
				exec: r.Exec, end: r.End, failed: r.Err != nil,
				taskRetries: r.TaskRetries, attempts: r.Attempts, rerouted: r.Rerouted,
			}
		}
		return out
	}
	fromBaseline := func(rs []mapreduce.Result) []jobOutcome {
		out := make([]jobOutcome, len(rs))
		for i, r := range rs {
			out[i] = jobOutcome{
				exec: r.Exec, end: r.End, failed: r.Err != nil,
				taskRetries: r.TaskRetries,
			}
		}
		return out
	}
	checker := func() *mapreduce.InvariantChecker {
		if !opts.Invariants {
			return nil
		}
		return mapreduce.NewInvariantChecker()
	}
	baseline := func(p *mapreduce.Platform) func() ([]jobOutcome, uint64, error) {
		return func() ([]jobOutcome, uint64, error) {
			var st core.ReplayStats
			inv := checker()
			rs, err := core.RunBaselineChecked(p, jobs, mapreduce.Fair, sched.ForBaseline(), inj, &st, opts.Watchdog, inv)
			if err != nil {
				return nil, 0, err
			}
			if verr := inv.Err(); verr != nil {
				return nil, 0, verr
			}
			return fromBaseline(rs), st.Events, nil
		}
	}
	hybridRun := func(opt core.FaultRun) func() ([]jobOutcome, uint64, error) {
		return func() ([]jobOutcome, uint64, error) {
			var st core.ReplayStats
			opt.Stats = &st
			opt.Watchdog = opts.Watchdog
			inv := checker()
			opt.Invariants = inv
			rs, err := hybrid.RunFaulted(jobs, opt)
			if err != nil {
				return nil, 0, err
			}
			if verr := inv.Err(); verr != nil {
				return nil, 0, verr
			}
			return fromHybrid(rs), st.Events, nil
		}
	}

	res := &Resilience{Jobs: len(jobs), Schedule: sched, Inject: inj}
	replays := []struct {
		name string
		into *ArchResilience
		run  func() ([]jobOutcome, uint64, error)
	}{
		{"Hybrid-FA", &res.FailureAware, hybridRun(core.FaultRun{Schedule: sched, Inject: inj, FailureAware: true, Runner: runner, Obs: o})},
		{"Hybrid-static", &res.Static, hybridRun(core.FaultRun{Schedule: sched, Inject: inj})},
		{"THadoop", &res.THadoop, baseline(arch.THadoop)},
		{"RHadoop", &res.RHadoop, baseline(arch.RHadoop)},
		{"Hybrid-clean", &res.Clean, hybridRun(core.FaultRun{})},
	}
	if opts.FABlacklist {
		res.FABlacklist = &ArchResilience{}
		replays = append(replays, struct {
			name string
			into *ArchResilience
			run  func() ([]jobOutcome, uint64, error)
		}{"Hybrid-FA-BL", res.FABlacklist, hybridRun(core.FaultRun{
			Schedule: sched, Inject: inj, FailureAware: true, Runner: runner,
			Blacklist: true, CloneStragglers: true,
		})})
	}

	type outcome struct {
		results []jobOutcome
		events  uint64
		err     error
	}
	start := time.Now() //simlint:allow walltime Wall is a real throughput footer, excluded from Render and the goldens
	outs := sweep.Map(runner.Workers(), len(replays), func(i int) outcome {
		// Panic isolation: a watchdog stop or a panic inside one replay
		// becomes that row's typed error, not a torn-down experiment.
		var o outcome
		if perr := sweep.Protect(func() {
			o.results, o.events, o.err = replays[i].run()
		}); perr != nil {
			o = outcome{err: perr}
		}
		return o
	})
	res.Wall = time.Since(start) //simlint:allow walltime Wall is a real throughput footer, excluded from Render and the goldens
	for i, o := range outs {
		if o.err != nil {
			var perr *sweep.PointError
			if errors.As(o.err, &perr) {
				*replays[i].into = ArchResilience{Name: replays[i].name, Err: o.err}
				continue
			}
			// Configuration errors (bad platform, bad schedule) still fail
			// the whole experiment — there is nothing partial to render.
			return nil, fmt.Errorf("figures: %s: %w", replays[i].name, o.err)
		}
		res.TotalEvents += o.events
		*replays[i].into = summarize(replays[i].name, o.results)
	}
	return res, nil
}

// Footer returns the kernel-throughput line for CLI display: total events
// executed across the five replays and the aggregate events/sec. It is
// deliberately not part of Render — Render is golden-snapshotted, and wall
// time varies run to run.
func (r *Resilience) Footer() string {
	if r.Wall <= 0 {
		return fmt.Sprintf("kernel: %d events across %d replays\n", r.TotalEvents, len(r.archs()))
	}
	return fmt.Sprintf("kernel: %d events across %d replays in %.2fs (%.0f events/sec)\n",
		r.TotalEvents, len(r.archs()), r.Wall.Seconds(),
		float64(r.TotalEvents)/r.Wall.Seconds())
}

func summarize(name string, rs []jobOutcome) ArchResilience {
	a := ArchResilience{Name: name}
	cdf := stats.NewCDF(nil)
	for _, r := range rs {
		a.TaskRetries += r.taskRetries
		if r.attempts > 1 {
			a.JobRetries++
		}
		if r.rerouted {
			a.Reroutes++
		}
		if r.failed {
			a.Failed++
			continue
		}
		a.OK++
		cdf.Add(r.exec.Seconds())
		if r.end > a.Makespan {
			a.Makespan = r.end
		}
	}
	if a.OK > 0 {
		a.MeanS, a.P50S, a.P99S = cdf.Mean(), cdf.Quantile(0.5), cdf.Quantile(0.99)
	}
	return a
}

// Render returns the resilience report as deterministic aligned text.
func (r *Resilience) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Resilience — trace replay under fault injection (%d jobs)\n", r.Jobs)

	if r.Schedule.Empty() {
		b.WriteString("fault schedule: (none)\n")
	} else {
		fmt.Fprintf(&b, "fault schedule (fp %#016x):\n", r.Schedule.Fingerprint())
		for _, e := range r.Schedule.Events {
			// Gray slowdown events carry a factor; crashes and recoveries
			// do not, and their lines must stay byte-identical to the
			// pre-gray snapshots.
			if e.Factor > 0 {
				fmt.Fprintf(&b, "  %-10s %s: %s x%d factor %g\n", e.At, e.Cluster, e.Kind, e.Count, e.Factor)
			} else {
				fmt.Fprintf(&b, "  %-10s %s: %s x%d\n", e.At, e.Cluster, e.Kind, e.Count)
			}
		}
	}
	if in := r.Inject; in.FailureRate != 0 || in.StragglerFrac != 0 {
		spec := "off"
		if in.Speculate {
			spec = "on"
		}
		fmt.Fprintf(&b, "injection: failure rate %g, straggler frac %g (speculation %s), seed %d\n",
			in.FailureRate, in.StragglerFrac, spec, in.Seed)
	}

	tab := textplot.Table{
		Header: []string{"arch", "ok", "failed", "makespan", "mean(s)", "p50(s)", "p99(s)", "task-retries", "job-retries", "reroutes"},
	}
	for _, a := range r.archs() {
		if a.Err != nil {
			row := []string{a.Name}
			for range tab.Header[1:] {
				row = append(row, "-")
			}
			tab.Rows = append(tab.Rows, row)
			continue
		}
		tab.Rows = append(tab.Rows, []string{
			a.Name,
			fmt.Sprintf("%d", a.OK),
			fmt.Sprintf("%d", a.Failed),
			fmt.Sprintf("%.1fs", a.Makespan.Seconds()),
			fmt.Sprintf("%.2f", a.MeanS),
			fmt.Sprintf("%.2f", a.P50S),
			fmt.Sprintf("%.2f", a.P99S),
			fmt.Sprintf("%d", a.TaskRetries),
			fmt.Sprintf("%d", a.JobRetries),
			fmt.Sprintf("%d", a.Reroutes),
		})
	}
	b.WriteByte('\n')
	b.WriteString(tab.Render())

	b.WriteString("\ndegradation vs clean hybrid (mean / p99):\n")
	for _, a := range r.archs() {
		if a.Name == r.Clean.Name || a.Err != nil {
			continue
		}
		fmt.Fprintf(&b, "  %-13s %s / %s\n", a.Name,
			pct(a.MeanS, r.Clean.MeanS),
			pct(a.P99S, r.Clean.P99S))
	}

	// Replay errors appear only when a replay actually failed, so reports
	// from healthy runs stay byte-identical to earlier snapshots.
	if errs := r.erroredArchs(); len(errs) > 0 {
		b.WriteString("\nreplay errors:\n")
		for _, a := range errs {
			fmt.Fprintf(&b, "  %-13s %v\n", a.Name, a.Err)
		}
	}

	fa, st := r.FailureAware, r.Static
	word := "does NOT beat"
	if fa.beats(st) {
		word = "beats"
	}
	fmt.Fprintf(&b, "verdict: failure-aware %s static Algorithm 1 — %d vs %d jobs ok, mean %.2fs vs %.2fs, p99 %.2fs vs %.2fs\n",
		word, fa.OK, st.OK, fa.MeanS, st.MeanS, fa.P99S, st.P99S)
	return b.String()
}

// beats orders two architectures under the same faults lexicographically:
// more jobs finished, then lower mean, then lower p99, then lower makespan —
// strict at the first differing criterion.
func (a ArchResilience) beats(o ArchResilience) bool {
	switch {
	case a.OK != o.OK:
		return a.OK > o.OK
	case a.MeanS != o.MeanS:
		return a.MeanS < o.MeanS
	case a.P99S != o.P99S:
		return a.P99S < o.P99S
	}
	return a.Makespan < o.Makespan
}

func (r *Resilience) archs() []ArchResilience {
	as := []ArchResilience{r.FailureAware}
	if r.FABlacklist != nil {
		as = append(as, *r.FABlacklist)
	}
	return append(as, r.Static, r.THadoop, r.RHadoop, r.Clean)
}

// erroredArchs returns the replays that failed with a per-point error, in
// table order.
func (r *Resilience) erroredArchs() []ArchResilience {
	var out []ArchResilience
	for _, a := range r.archs() {
		if a.Err != nil {
			out = append(out, a)
		}
	}
	return out
}

// pct formats v as a signed percentage change over base.
func pct(v, base float64) string {
	if base == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*(v/base-1))
}
