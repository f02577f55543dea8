package main

import (
	"bytes"
	"fmt"

	"hybridmr/internal/core"
	"hybridmr/internal/faults"
	"hybridmr/internal/figures"
	"hybridmr/internal/mapreduce"
	"hybridmr/internal/obs"
	"hybridmr/internal/sweep"
	"hybridmr/internal/units"
	"hybridmr/internal/workload"
)

// faultedReport is the resilience report (§VI extension). One op runs
// figures.RunResilienceOpts on a trace under the merged crash and gray
// demo schedules with task-level injection, the blacklist replay and the
// invariant checker, observed by a full obs.Set; then it exports the
// tracer, metrics and audit to memory and renders the report. Each op gets
// a fresh one-worker sweep runner, so its cache counts are deterministic.
type faultedReport struct {
	cal   mapreduce.Calibration
	jobs  [][]workload.Job
	sched *faults.Schedule
	inj   core.Inject
	arch  *figures.ArchSet

	// The last op's outputs.
	rep    *figures.Resilience
	text   string
	export bytes.Buffer
	set    obs.Set
	runner *sweep.Runner
	refs   *refBook

	retries, reroutes, jobRetry float64
	usefulTasks, attemptedTasks float64
	hits, misses                float64
	spans, audits, exportBytes  float64
	violations                  int
	simProbe
}

var reportOpts = figures.ResilienceOpts{FABlacklist: true, Invariants: true}

func newFaultedReport(seed int64, p params, sp *spanLog) (*faultedReport, error) {
	sched, err := faults.Merge(faults.Demo(), faults.GrayDemo())
	if err != nil {
		return nil, err
	}
	cal := mapreduce.DefaultCalibration()
	arch, err := figures.SharedArches(cal)
	if err != nil {
		return nil, err
	}
	f := &faultedReport{
		cal:   cal,
		sched: sched,
		inj:   core.Inject{FailureRate: 0.005, StragglerFrac: 0.1, Speculate: true, Seed: 7},
		arch:  arch,
		refs:  newRefBook(faultedName, seed, p.variants, p == defaultParams()),
	}
	for v := 0; v < p.variants; v++ {
		id := sp.begin(spanGenerate)
		jobs, err := workload.Generate(traceConfig(seed, v, p.reportJobs))
		sp.end(id)
		if err != nil {
			return nil, err
		}
		f.jobs = append(f.jobs, jobs)
	}
	return f, nil
}

func (f *faultedReport) variants() int { return len(f.jobs) }

// jobsPerOp counts the report's six replays of the trace.
func (f *faultedReport) jobsPerOp() int { return 6 * len(f.jobs[0]) }

func fullObs() obs.Set {
	return obs.Set{Trace: obs.NewTracer(), Metrics: obs.NewRegistry(), Audit: obs.NewAudit()}
}

func (f *faultedReport) run(v int, sp *spanLog) error {
	f.set = fullObs()
	f.runner = sweep.New(1)
	id := sp.begin("figures.RunResilienceOpts")
	rep, err := figures.RunResilienceOpts(f.cal, f.jobs[v], f.sched, f.inj, f.set, f.runner, reportOpts)
	sp.end(id)
	if err != nil {
		return err
	}
	id = sp.begin("obs.export")
	f.export.Reset()
	err = f.set.Trace.WriteJSONL(&f.export)
	if err == nil {
		err = f.set.Metrics.WriteSnapshot(&f.export)
	}
	if err == nil {
		err = f.set.Audit.WriteJSONL(&f.export)
	}
	sp.end(id)
	if err != nil {
		return err
	}
	id = sp.begin("figures.Resilience.Render")
	f.text = rep.Render()
	sp.end(id)
	f.rep = rep
	return nil
}

// check requires every replay to finish and account for every job, and
// pins the report and the exported observations to the variant's
// reference. The invariant checker is on: a violation already failed
// RunResilienceOpts.
func (f *faultedReport) check(v int) error {
	r := f.rep
	archs := []figures.ArchResilience{r.FailureAware, r.Static, r.THadoop, r.RHadoop, r.Clean}
	if r.FABlacklist == nil {
		return fmt.Errorf("report has no blacklist replay")
	}
	archs = append(archs, *r.FABlacklist)
	for _, a := range archs {
		if a.Err != nil {
			return fmt.Errorf("replay %s: %w", a.Name, a.Err)
		}
		if a.OK+a.Failed != r.Jobs {
			return fmt.Errorf("replay %s accounts for %d of %d jobs", a.Name, a.OK+a.Failed, r.Jobs)
		}
	}
	if r.Clean.Failed != 0 {
		return fmt.Errorf("fault-free replay failed %d jobs", r.Clean.Failed)
	}
	return f.refs.match(v, uint64(fnvOffset.str(f.text).bytes(f.export.Bytes())))
}

// probe issues the report's six replays one at a time with the report's
// options, then the failure-aware replay bare, checked only and observed
// only, for the invariant and observer overheads.
func (f *faultedReport) probe(v int, sp *spanLog) error {
	jobs := f.jobs[v]
	h := f.arch.Hybrid
	f.route(h, jobs, sp)
	f.plan(h, f.arch.THadoop, f.arch.RHadoop, jobs, sp)

	var events uint64
	hybrid := func(name string, opt core.FaultRun, counted bool) ([]core.JobResult, error) {
		var st core.ReplayStats
		opt.Stats = &st
		id := sp.begin(name)
		rs, err := h.RunFaulted(jobs, opt)
		sp.end(id)
		if err == nil {
			err = f.checked(opt.Invariants, len(rs), len(jobs))
		}
		if counted {
			events += st.Events
		}
		return rs, err
	}
	baseline := func(name string, p *mapreduce.Platform) ([]mapreduce.Result, error) {
		var st core.ReplayStats
		inv := mapreduce.NewInvariantChecker()
		id := sp.begin(name)
		rs, err := core.RunBaselineChecked(p, jobs, mapreduce.Fair, f.sched.ForBaseline(), f.inj, &st, sweep.Budget{}, inv)
		sp.end(id)
		if err == nil {
			err = f.checked(inv, len(rs), len(jobs))
		}
		events += st.Events
		return rs, err
	}
	fa := core.FaultRun{Schedule: f.sched, Inject: f.inj, FailureAware: true}
	with := func(opt core.FaultRun, runner *sweep.Runner, o obs.Set, invOn bool) core.FaultRun {
		opt.Runner, opt.Obs = runner, o
		if invOn {
			opt.Invariants = mapreduce.NewInvariantChecker()
		}
		return opt
	}
	bl := fa
	bl.Blacklist, bl.CloneStragglers = true, true

	// The report's replays in its order, the two failure-aware ones
	// sharing one fresh runner as in the report.
	runner := sweep.New(1)
	faRes, err := hybrid(spanReplay+"hybrid_fa", with(fa, runner, fullObs(), true), true)
	if err != nil {
		return err
	}
	results := [][]mapreduce.Result{plain(faRes)}
	rs, err := hybrid(spanReplay+"hybrid_static", with(core.FaultRun{Schedule: f.sched, Inject: f.inj}, nil, obs.Set{}, true), true)
	if err != nil {
		return err
	}
	results = append(results, plain(rs))
	for _, b := range []struct {
		name string
		p    *mapreduce.Platform
	}{{spanReplay + "thadoop", f.arch.THadoop}, {spanReplay + "rhadoop", f.arch.RHadoop}} {
		rs, err := baseline(b.name, b.p)
		if err != nil {
			return err
		}
		results = append(results, rs)
	}
	for _, r := range []struct {
		name string
		opt  core.FaultRun
	}{
		{spanReplay + "hybrid_clean", with(core.FaultRun{}, nil, obs.Set{}, true)},
		{spanReplay + "hybrid_fa_bl", with(bl, runner, obs.Set{}, true)},
	} {
		rs, err := hybrid(r.name, r.opt, true)
		if err != nil {
			return err
		}
		results = append(results, plain(rs))
	}
	// The failure-aware replay bare, checked only and observed only.
	for _, o := range []struct {
		name  string
		obs   obs.Set
		invOn bool
	}{{"probe.fa_bare", obs.Set{}, false}, {"probe.fa_checked", obs.Set{}, true}, {"probe.fa_observed", fullObs(), false}} {
		if _, err := hybrid(o.name, with(fa, sweep.New(1), o.obs, o.invOn), false); err != nil {
			return err
		}
	}

	for _, rs := range results {
		for _, r := range rs {
			f.tasks += float64(r.MapTasks + r.Reducers)
		}
	}
	for _, r := range results[0] {
		if r.Err == nil {
			f.usefulTasks += float64(r.MapTasks + r.Reducers)
		}
		f.attemptedTasks += float64(r.MapTasks + r.Reducers + r.TaskRetries)
	}
	hits, misses := f.runner.Cache().Stats()
	rep := f.rep.FailureAware
	f.ops++
	f.events += float64(events)
	f.p99s = append(f.p99s, rep.P99S)
	f.retries += float64(rep.TaskRetries)
	f.reroutes += float64(rep.Reroutes)
	f.jobRetry += float64(rep.JobRetries)
	f.hits += float64(hits)
	f.misses += float64(misses)
	f.spans += float64(f.set.Trace.Len())
	f.audits += float64(f.set.Audit.Len())
	f.exportBytes += float64(f.export.Len())
	return nil
}

// checked requires a clean invariant checker and one result per job.
func (f *faultedReport) checked(inv *mapreduce.InvariantChecker, got, want int) error {
	if inv != nil {
		f.violations += len(inv.Violations()) + inv.Dropped()
		if err := inv.Err(); err != nil {
			return err
		}
	}
	if got != want {
		return fmt.Errorf("replay returned %d results for %d jobs", got, want)
	}
	return nil
}

func plain(rs []core.JobResult) []mapreduce.Result {
	out := make([]mapreduce.Result, len(rs))
	for i, r := range rs {
		out[i] = r.Result
	}
	return out
}

func (f *faultedReport) layers(sp *spanLog, m map[string]float64) {
	replays := []string{
		spanReplay + "hybrid_fa", spanReplay + "hybrid_fa_bl", spanReplay + "hybrid_static",
		spanReplay + "thadoop", spanReplay + "rhadoop", spanReplay + "hybrid_clean",
	}
	f.simLayers(sp, replays, m)
	for _, r := range []string{"hybrid_fa", "hybrid_fa_bl", "hybrid_static", "hybrid_clean"} {
		m["mapreduce.replay_ms."+r] = median(ms(sp.durations(spanReplay + r)))
	}
	n := float64(f.ops)
	bare := median(ms(sp.durations("probe.fa_bare")))
	m["mapreduce.task_retries"] = ratio(f.retries, n)
	m["mapreduce.useful_task_ratio"] = ratio(f.usefulTasks, f.attemptedTasks)
	m["mapreduce.invariant_overhead_pct"] = pctOver(median(ms(sp.durations("probe.fa_checked"))), bare)
	m["mapreduce.invariant_violations"] = float64(f.violations)
	m["core.reroutes"] = ratio(f.reroutes, n)
	m["core.job_retries"] = ratio(f.jobRetry, n)
	m["sweep.cache_hits"] = ratio(f.hits, n)
	m["sweep.cache_misses"] = ratio(f.misses, n)
	m["sweep.hit_ratio"] = ratio(f.hits, f.hits+f.misses)
	m["obs.overhead_pct"] = pctOver(median(ms(sp.durations("probe.fa_observed"))), bare)
	m["obs.spans"] = ratio(f.spans, n)
	m["obs.audit_records"] = ratio(f.audits, n)
	m["obs.export_ms"] = median(ms(sp.durations("obs.export")))
	m["obs.export_mb"] = ratio(f.exportBytes, n) / float64(units.MB)
	m["figures.self_ms"] = selfMS(sp, "figures.RunResilienceOpts", replays)
	m["figures.render_ms"] = median(ms(sp.durations("figures.Resilience.Render")))
}
