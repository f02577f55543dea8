package main

import (
	"fmt"
	"math"
	"time"

	"hybridmr/internal/core"
	"hybridmr/internal/figures"
	"hybridmr/internal/mapreduce"
	"hybridmr/internal/sweep"
	"hybridmr/internal/textplot"
	"hybridmr/internal/workload"
)

// Span names the fb-day and faulted-report workloads record.
const (
	spanGenerate = "workload.Generate"
	spanDecide   = "core.Scheduler.Decide"
	spanPlan     = "mapreduce.Platform.RunIsolated"
	spanReplay   = "mapreduce.replay."
)

// fbDay is the paper's headline experiment (§V, Fig. 10). One op
// regenerates Figure 10 through the public figures path, as
// `benchtables -fig 10` does: the FB-2009 day replayed on the hybrid,
// THadoop and RHadoop under Fair, with faults, observers and invariants
// off. The traced run also issues the three replays, the routing and the
// planning one at a time, to time each layer.
type fbDay struct {
	cal    mapreduce.Calibration
	cfgs   []workload.Config
	setups []*figures.ReplaySetup

	// fig and text are the last op's figure and its rendering.
	fig  textplot.Figure
	text string
	// figRefs pins each variant's figure; jobRefs its per-job results.
	figRefs, jobRefs *refBook

	// variantEvents caches each variant's kernel events per op.
	variantEvents []uint64
	fig10aErrs    []float64
	simProbe
}

// simProbe holds what the two simulator workloads' traced ops tally.
type simProbe struct {
	ops                   int
	events, tasks         float64
	plans, routed, upJobs float64
	p99s                  []float64
	// up holds the last routed trace's Algorithm 1 classes.
	up []bool
}

func traceConfig(seed int64, v, jobs int) workload.Config {
	cfg := workload.DefaultConfig()
	cfg.Seed = traceSeed(seed, v)
	// Scaling the job count keeps the day's arrival rate, as benchtables
	// -jobs does.
	cfg.Duration = time.Duration(float64(cfg.Duration) * float64(jobs) / float64(cfg.Jobs))
	cfg.Jobs = jobs
	return cfg
}

func newFBDay(seed int64, p params, sp *spanLog) (*fbDay, error) {
	sweep.SetDefaultWorkers(1)
	f := &fbDay{
		cal:           mapreduce.DefaultCalibration(),
		figRefs:       newRefBook(fbDayName+"/figure", seed, p.variants, p == defaultParams()),
		jobRefs:       newRefBook(fbDayName+"/jobs", seed, p.variants, p == defaultParams()),
		variantEvents: make([]uint64, p.variants),
	}
	for v := 0; v < p.variants; v++ {
		cfg := traceConfig(seed, v, p.traceJobs)
		if sp != nil {
			id := sp.begin(spanGenerate)
			_, err := workload.Generate(cfg)
			sp.end(id)
			if err != nil {
				return nil, err
			}
		}
		// SharedSetup generates and memoizes the trace and the platforms,
		// so every op's Fig10 call finds them ready.
		s, err := figures.SharedSetup(f.cal, cfg)
		if err != nil {
			return nil, err
		}
		f.cfgs = append(f.cfgs, cfg)
		f.setups = append(f.setups, s)
	}
	return f, nil
}

func (f *fbDay) variants() int  { return len(f.cfgs) }
func (f *fbDay) jobsPerOp() int { return 3 * f.cfgs[0].Jobs }

func (f *fbDay) run(v int, sp *spanLog) error {
	id := sp.begin("figures.Fig10")
	fig, err := figures.Fig10(f.cal, f.cfgs[v])
	sp.end(id)
	if err != nil {
		return err
	}
	id = sp.begin("figures.Figure.Render")
	f.text = fig.Render()
	sp.end(id)
	f.fig = fig
	return nil
}

// check pins the op's figure, down to every quantile's float bits, to the
// variant's reference. Fig10 itself fails when any job fails.
func (f *fbDay) check(v int) error {
	if len(f.fig.Panels) != 2 || f.text == "" {
		return fmt.Errorf("fig. 10 has %d panels, want 2", len(f.fig.Panels))
	}
	return f.figRefs.match(v, figureDigest(f.fig, f.text))
}

func figureDigest(fig textplot.Figure, text string) uint64 {
	h := fnvOffset.str(fig.ID).str(fig.Title)
	for _, p := range fig.Panels {
		h = h.str(p.Name)
		for _, s := range p.Series {
			h = h.str(s.Name)
			for i := range s.Y {
				h = h.float(s.X[i]).float(s.Y[i])
			}
		}
	}
	for _, n := range fig.Notes {
		h = h.str(n)
	}
	return uint64(h.str(text))
}

// probe times routing, planning and the three replays of the op's figure
// one at a time, and checks the per-job results against the variant's
// reference.
func (f *fbDay) probe(v int, sp *spanLog) error {
	s := f.setups[v]
	jobs := s.Jobs
	f.route(s.Hybrid, jobs, sp)
	f.plan(s.Hybrid, s.THadoop, s.RHadoop, jobs, sp)

	id := sp.begin(spanReplay + "hybrid")
	hybrid := s.Hybrid.Run(jobs)
	sp.end(id)
	id = sp.begin(spanReplay + "thadoop")
	th := core.RunBaseline(s.THadoop, jobs, mapreduce.Fair)
	sp.end(id)
	id = sp.begin(spanReplay + "rhadoop")
	rh := core.RunBaseline(s.RHadoop, jobs, mapreduce.Fair)
	sp.end(id)

	hybridRes := plain(hybrid)
	targets := make([]core.Target, len(hybrid))
	for i, r := range hybrid {
		targets[i] = r.Target
	}
	replays := [3][]mapreduce.Result{hybridRes, th, rh}
	d, err := jobsDigest(jobs, targets, replays)
	if err != nil {
		return err
	}
	if err := f.jobRefs.match(v, d); err != nil {
		return err
	}
	var maxes [3]float64
	for a, rs := range replays {
		for i, r := range rs {
			if f.up[i] {
				maxes[a] = math.Max(maxes[a], r.Exec.Seconds())
			}
			f.tasks += float64(r.MapTasks + r.Reducers)
		}
	}
	if f.variantEvents[v] == 0 {
		ev, err := fbDayEvents(s, jobs)
		if err != nil {
			return err
		}
		f.variantEvents[v] = ev
	}
	f.ops++
	f.events += float64(f.variantEvents[v])
	f.p99s = append(f.p99s, p99Exec(hybridRes))
	f.fig10aErrs = append(f.fig10aErrs, fig10aErr(maxes))
	return nil
}

// jobsDigest requires each replay to return every job without error, in
// trace order, and digests the per-job results with the hybrid's routing.
func jobsDigest(jobs []workload.Job, targets []core.Target, replays [3][]mapreduce.Result) (uint64, error) {
	h := fnvOffset
	for _, t := range targets {
		h = h.word(uint64(t))
	}
	for a, rs := range replays {
		if len(rs) != len(jobs) {
			return 0, fmt.Errorf("replay %d returned %d results for %d jobs", a, len(rs), len(jobs))
		}
		for i, r := range rs {
			if r.Err != nil {
				return 0, fmt.Errorf("job %s: %w", r.Job.ID, r.Err)
			}
			if r.Job.ID != jobs[i].ID {
				return 0, fmt.Errorf("replay %d: result %d is job %s, want %s", a, i, r.Job.ID, jobs[i].ID)
			}
			h = h.str(r.Job.ID).word(uint64(r.Exec))
		}
	}
	return uint64(h), nil
}

// route times Algorithm 1's decision over the trace; p.up keeps each
// job's class.
func (p *simProbe) route(h *core.Hybrid, jobs []workload.Job, sp *spanLog) {
	p.up = make([]bool, len(jobs))
	id := sp.begin(spanDecide)
	for i, j := range jobs {
		p.up[i] = h.Sched.Decide(j) == core.ScaleUp
	}
	sp.end(id)
	for _, up := range p.up {
		if up {
			p.upJobs++
		}
	}
	p.routed += float64(len(jobs))
}

// plan times the cost model's planning of every job the op replays: on
// the half Algorithm 1 picks, and on both baselines.
func (p *simProbe) plan(h *core.Hybrid, th, rh *mapreduce.Platform, jobs []workload.Job, sp *spanLog) {
	id := sp.begin(spanPlan)
	for i, j := range jobs {
		mj := j.MapReduceJob()
		half := h.Out
		if p.up[i] {
			half = h.Up
		}
		half.RunIsolated(mj)
		th.RunIsolated(mj)
		rh.RunIsolated(mj)
	}
	sp.end(id)
	p.plans += float64(3 * len(jobs))
}

// fbDayEvents counts the kernel events of the op's three replays through
// the replay entry points that report them; with no faults they reproduce
// Hybrid.Run and RunBaseline.
func fbDayEvents(s *figures.ReplaySetup, jobs []workload.Job) (uint64, error) {
	var st core.ReplayStats
	if _, err := s.Hybrid.RunFaulted(jobs, core.FaultRun{Stats: &st}); err != nil {
		return 0, err
	}
	total := st.Events
	for _, p := range []*mapreduce.Platform{s.THadoop, s.RHadoop} {
		if _, err := core.RunBaselineChecked(p, jobs, mapreduce.Fair, nil, core.Inject{}, &st, sweep.Budget{}, nil); err != nil {
			return 0, err
		}
		total += st.Events
	}
	return total, nil
}

// p99Exec is the simulated p99 execution time of the jobs.
func p99Exec(rs []mapreduce.Result) float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = r.Exec.Seconds()
	}
	return quantile(xs, 0.99)
}

// fig10aErr is the mean absolute % error of the scale-up-class maxima
// (hybrid, THadoop, RHadoop) against the paper's Fig. 10(a).
func fig10aErr(maxes [3]float64) float64 {
	paper := [3]float64{paperFig10aMax.hybrid, paperFig10aMax.thadoop, paperFig10aMax.rhadoop}
	var sum float64
	for i := range maxes {
		sum += math.Abs(maxes[i]-paper[i]) / paper[i]
	}
	return 100 * sum / 3
}

func (f *fbDay) layers(sp *spanLog, m map[string]float64) {
	replays := []string{spanReplay + "hybrid", spanReplay + "thadoop", spanReplay + "rhadoop"}
	f.simLayers(sp, replays, m)
	m["figures.self_ms"] = selfMS(sp, "figures.Fig10", replays)
	m["figures.render_ms"] = median(ms(sp.durations("figures.Figure.Render")))
	m["mapreduce.replay_ms.hybrid"] = median(ms(sp.durations(replays[0])))
	m["fig10a_err_pct"] = mean(f.fig10aErrs)
}

// simLayers fills the metrics the two simulator workloads share. replays
// are the span names of the replays one op is made of.
func (t *simProbe) simLayers(sp *spanLog, replays []string, m map[string]float64) {
	var replayNS time.Duration
	for _, d := range sp.byOp(replays...) {
		replayNS += d
	}
	n := float64(t.ops)
	m["simclock.events"] = ratio(t.events, n)
	m["simclock.ns_per_event"] = ratio(float64(replayNS), t.events)
	m["mapreduce.replay_ms.thadoop"] = median(ms(sp.durations(spanReplay + "thadoop")))
	m["mapreduce.replay_ms.rhadoop"] = median(ms(sp.durations(spanReplay + "rhadoop")))
	m["mapreduce.tasks"] = ratio(t.tasks, n)
	m["mapreduce.ns_per_task"] = ratio(float64(replayNS), t.tasks)
	m["mapreduce.plan_ns_per_job"] = ratio(float64(sum(sp.durations(spanPlan))), t.plans)
	m["core.route_ns_per_job"] = ratio(float64(sum(sp.durations(spanDecide))), t.routed)
	m["core.up_frac"] = ratio(t.upJobs, t.routed)
	m["sim_hybrid_p99_s"] = mean(t.p99s)
	m["workload.gen_ms"] = median(ms(sp.durations(spanGenerate)))
}

// selfMS is the median, over traced ops, of the figures call's span minus
// the spans of the replays the op's figure is made of. The traced op
// issues those replays one at a time beside the figures call, because the
// call runs its own replays out of the benchmark's reach.
func selfMS(sp *spanLog, call string, replays []string) float64 {
	outer := sp.byOp(call)
	inner := sp.byOp(replays...)
	var self []float64
	for op, d := range outer {
		self = append(self, float64(d-inner[op])/float64(time.Millisecond))
	}
	return median(self)
}

func sum(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}
