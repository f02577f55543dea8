package core

import (
	"runtime"
	"testing"
	"time"
	"unsafe"

	"hybridmr/internal/apps"
	"hybridmr/internal/mapreduce"
	"hybridmr/internal/stats"
	"hybridmr/internal/units"
	"hybridmr/internal/workload"
)

func newHybridT(t testing.TB) *Hybrid {
	t.Helper()
	h, err := NewHybrid(mapreduce.DefaultCalibration())
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestNewHybridShape(t *testing.T) {
	h := newHybridT(t)
	if h.Up.Spec.Machines != 2 || h.Out.Spec.Machines != 12 {
		t.Errorf("hybrid = %d up + %d out machines, want 2 + 12", h.Up.Spec.Machines, h.Out.Spec.Machines)
	}
	if h.Up.FS.Name() != "OFS" || h.Out.FS.Name() != "OFS" {
		t.Error("both hybrid halves must mount the remote OFS (§IV)")
	}
	if h.Policy != mapreduce.Fair {
		t.Error("trace runs use the Fair scheduler")
	}
	if h.Sched.CrossPoints() != PaperCrossPoints() {
		t.Error("hybrid should default to the paper's cross points")
	}
}

// Each job runs on the cluster Algorithm 1 picked.
func TestHybridRouting(t *testing.T) {
	h := newHybridT(t)
	jobs := []workload.Job{
		{ID: "small", App: apps.Wordcount(), Input: units.GB, RatioKnown: true},
		{ID: "large", App: apps.Wordcount(), Input: 64 * units.GB, RatioKnown: true},
	}
	res := h.Run(jobs)
	if len(res) != 2 {
		t.Fatalf("%d results", len(res))
	}
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Job.ID, r.Err)
		}
		switch r.Job.ID {
		case "small":
			if r.Target != ScaleUp || r.Ran() != ScaleUp {
				t.Errorf("small job ran on %v", r.Ran())
			}
			if r.Platform != "up-OFS" {
				t.Errorf("small job platform = %s", r.Platform)
			}
		case "large":
			if r.Target != ScaleOut || r.Ran() != ScaleOut {
				t.Errorf("large job ran on %v", r.Ran())
			}
			if r.Platform != "out-OFS" {
				t.Errorf("large job platform = %s", r.Platform)
			}
		}
	}
}

// An isolated job on the hybrid matches the isolated run on the chosen half:
// routing adds no cost.
func TestHybridMatchesIsolated(t *testing.T) {
	h := newHybridT(t)
	j := workload.Job{ID: "x", App: apps.Grep(), Input: 4 * units.GB, RatioKnown: true}
	res := h.Run([]workload.Job{j})
	want := h.Up.RunIsolated(j.MapReduceJob())
	if res[0].Exec != want.Exec {
		t.Errorf("hybrid exec %v != isolated %v", res[0].Exec, want.Exec)
	}
}

// The two halves run concurrently: a big job on the out half does not delay
// a small job on the up half.
func TestHybridIsolation(t *testing.T) {
	h := newHybridT(t)
	jobs := []workload.Job{
		{ID: "big", App: apps.Wordcount(), Input: 100 * units.GB, RatioKnown: true},
		{ID: "small", App: apps.Grep(), Input: units.GB, Submit: time.Second, RatioKnown: true},
	}
	res := h.Run(jobs)
	var small JobResult
	for _, r := range res {
		if r.Job.ID == "small" {
			small = r
		}
	}
	solo := h.Up.RunIsolated(workload.Job{ID: "small", App: apps.Grep(), Input: units.GB, RatioKnown: true}.MapReduceJob())
	if small.Exec != solo.Exec {
		t.Errorf("small job exec %v != isolated %v — the big job leaked across halves", small.Exec, solo.Exec)
	}
}

// A job the chosen platform rejects surfaces its error.
func TestHybridErrorSurfaces(t *testing.T) {
	h := newHybridT(t)
	res := h.Run([]workload.Job{{ID: "bad", App: apps.Grep(), Input: 0}})
	if len(res) != 1 || res[0].Err == nil {
		t.Fatalf("invalid job: results = %+v", res)
	}
}

// budgetTrace is a generated tenth of the FB-2009 day: 600 jobs over 2.4 h.
func budgetTrace(t *testing.T) []workload.Job {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.Jobs = 600
	cfg.Duration = time.Duration(float64(24*time.Hour) * 600 / 6000)
	jobs, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// checkResultBytes holds a warm replay to one result array plus a quarter of
// its size in per-job state, measured as the mean runtime.MemStats.TotalAlloc
// delta over five runs. A second copy of the results (a post-drain copy, or
// a pooled view copied out) breaks it.
func checkResultBytes(t *testing.T, name string, n int, resultSize uintptr, run func()) {
	t.Helper()
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	got := float64(after.TotalAlloc-before.TotalAlloc) / runs
	if budget := 1.25 * float64(n) * float64(resultSize); got > budget {
		t.Errorf("warm %s allocates %.0f bytes per replay, budget %.0f (1.25 × %d jobs × %d-byte result)",
			name, got, budget, n, resultSize)
	}
}

// A warm replay of a generated day allocates a fixed handful of times,
// independent of the trace length: the job-state and result arrays, the
// hooks' shared cell, the two hook closures and the arrival cursor. Its
// bytes are the result array plus the job-state array. BenchmarkFig10's
// allocs/op gate rides on this path.
func TestRunAllocBudget(t *testing.T) {
	h := newHybridT(t)
	jobs := budgetTrace(t)
	// The pooled replay state's buffers reach their high-water marks over
	// the first couple of replays.
	for i := 0; i < 3; i++ {
		h.Run(jobs)
	}
	if n := testing.AllocsPerRun(5, func() { h.Run(jobs) }); n > 8 {
		t.Errorf("warm Hybrid.Run allocates %.0f times, budget 8", n)
	}
	checkResultBytes(t, "Hybrid.Run", len(jobs), unsafe.Sizeof(JobResult{}), func() { h.Run(jobs) })
}

// A warm baseline replay allocates the caller's result array and little
// else: results are written in place, not copied out of the pooled
// simulator.
func TestRunBaselineAllocBudget(t *testing.T) {
	th, err := mapreduce.NewTHadoop(mapreduce.DefaultCalibration())
	if err != nil {
		t.Fatal(err)
	}
	jobs := budgetTrace(t)
	// The pooled job records' per-task buffers reach their high-water marks
	// over the first dozen replays of one platform.
	for i := 0; i < 20; i++ {
		RunBaseline(th, jobs, mapreduce.Fair)
	}
	checkResultBytes(t, "RunBaseline", len(jobs), unsafe.Sizeof(mapreduce.Result{}), func() {
		RunBaseline(th, jobs, mapreduce.Fair)
	})
}

// RunBaseline executes all jobs on one platform.
func TestRunBaseline(t *testing.T) {
	th, err := mapreduce.NewTHadoop(mapreduce.DefaultCalibration())
	if err != nil {
		t.Fatal(err)
	}
	jobs := []workload.Job{
		{ID: "a", App: apps.Grep(), Input: units.GB, RatioKnown: true},
		{ID: "b", App: apps.Wordcount(), Input: 8 * units.GB, Submit: time.Minute, RatioKnown: true},
	}
	res := RunBaseline(th, jobs, mapreduce.Fair)
	if len(res) != 2 {
		t.Fatalf("%d results", len(res))
	}
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Job.ID, r.Err)
		}
		if r.Platform != "THadoop" {
			t.Errorf("platform = %s", r.Platform)
		}
	}
}

// The §V trace experiment, scale-up job class (Fig. 10a): the hybrid's
// scale-up jobs beat both baselines — mean and maximum — and the maxima
// order Hybrid < RHadoop < THadoop as in the paper (48.53 s / 68.17 s /
// 83.37 s there).
func TestFig10ScaleUpClass(t *testing.T) {
	hybridRes, thRes, rhRes, isUp := runTraceExperiment(t, 6000)

	hyUp := classCDF(hybridResToResults(hybridRes), isUp, true)
	thUp := classCDF(thRes, isUp, true)
	rhUp := classCDF(rhRes, isUp, true)

	if !(hyUp.Mean() < thUp.Mean() && hyUp.Mean() < rhUp.Mean()) {
		t.Errorf("hybrid scale-up mean %.1f not below THadoop %.1f and RHadoop %.1f",
			hyUp.Mean(), thUp.Mean(), rhUp.Mean())
	}
	if !(hyUp.Max() < rhUp.Max() && rhUp.Max() < thUp.Max()) {
		t.Errorf("scale-up maxima %.1f/%.1f/%.1f, want Hybrid < RHadoop < THadoop",
			hyUp.Max(), rhUp.Max(), thUp.Max())
	}
	// The paper's RHadoop has the worst small-job distribution (OFS
	// latency on a scale-out cluster).
	if !(rhUp.Mean() > thUp.Mean()) {
		t.Errorf("RHadoop scale-up mean %.1f not above THadoop %.1f", rhUp.Mean(), thUp.Mean())
	}
	// Magnitudes: the paper's maxima are 48.53/68.17/83.37 s; ours must
	// land in the same few-minute regime, not hours.
	if hyUp.Max() > 120 {
		t.Errorf("hybrid scale-up max %.1f s, want well under two minutes", hyUp.Max())
	}
}

// The §V trace experiment, scale-out job class (Fig. 10b): OFS gives
// RHadoop the edge over THadoop for large jobs (the paper's 2734 s vs
// 3087 s maxima). Note: the paper also reports the hybrid's 12-machine half
// beating both 24-machine baselines for this class; with a work-conserving
// fair scheduler at equal cost our model shows the baselines retaining
// their slot advantage instead — the one documented divergence (see
// EXPERIMENTS.md). We pin the parts that hold and bound the divergence.
func TestFig10ScaleOutClass(t *testing.T) {
	hybridRes, thRes, rhRes, isUp := runTraceExperiment(t, 6000)

	hyOut := classCDF(hybridResToResults(hybridRes), isUp, false)
	thOut := classCDF(thRes, isUp, false)
	rhOut := classCDF(rhRes, isUp, false)

	if !(rhOut.Max() < thOut.Max()) {
		t.Errorf("RHadoop scale-out max %.1f not below THadoop %.1f (OFS advantage)",
			rhOut.Max(), thOut.Max())
	}
	if !(rhOut.Mean() <= thOut.Mean()*1.02) {
		t.Errorf("RHadoop scale-out mean %.1f above THadoop %.1f", rhOut.Mean(), thOut.Mean())
	}
	// Divergence bound: the hybrid's half-sized scale-out cluster stays
	// within 2× of the 24-machine baselines.
	if hyOut.Max() > 2*thOut.Max() {
		t.Errorf("hybrid scale-out max %.1f more than 2× THadoop %.1f", hyOut.Max(), thOut.Max())
	}
	if hyOut.Mean() > 2*thOut.Mean() {
		t.Errorf("hybrid scale-out mean %.1f more than 2× THadoop %.1f", hyOut.Mean(), thOut.Mean())
	}
}

// About 15 % of the trace's jobs are scale-out jobs (§V: "only 15% of the
// jobs in the workload are scale-out jobs").
func TestScaleOutJobFraction(t *testing.T) {
	cfg := workload.DefaultConfig()
	cfg.Jobs = 6000
	jobs, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, out := MustScheduler(PaperCrossPoints()).Classify(jobs)
	frac := float64(len(out)) / float64(len(jobs))
	if frac < 0.08 || frac > 0.22 {
		t.Errorf("scale-out fraction = %.3f, want ≈0.15", frac)
	}
}

// --- helpers ---

func runTraceExperiment(t testing.TB, nJobs int) (hy []JobResult, th, rh []mapreduce.Result, isUp map[string]bool) {
	t.Helper()
	cal := mapreduce.DefaultCalibration()
	hybrid, err := NewHybrid(cal)
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.DefaultConfig()
	cfg.Jobs = nJobs
	// Keep the arrival rate of the full 6000-job day.
	cfg.Duration = time.Duration(float64(24*time.Hour) * float64(nJobs) / 6000)
	jobs, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	upJobs, _ := hybrid.Sched.Classify(jobs)
	isUp = make(map[string]bool, len(upJobs))
	for _, j := range upJobs {
		isUp[j.ID] = true
	}
	hy = hybrid.Run(jobs)
	thp, err := mapreduce.NewTHadoop(cal)
	if err != nil {
		t.Fatal(err)
	}
	rhp, err := mapreduce.NewRHadoop(cal)
	if err != nil {
		t.Fatal(err)
	}
	th = RunBaseline(thp, jobs, mapreduce.Fair)
	rh = RunBaseline(rhp, jobs, mapreduce.Fair)
	return hy, th, rh, isUp
}

func hybridResToResults(rs []JobResult) []mapreduce.Result {
	out := make([]mapreduce.Result, len(rs))
	for i, r := range rs {
		out[i] = r.Result
	}
	return out
}

func classCDF(rs []mapreduce.Result, isUp map[string]bool, wantUp bool) *stats.CDF {
	c := stats.NewCDF(nil)
	for _, r := range rs {
		if r.Err != nil {
			continue
		}
		if isUp[r.Job.ID] == wantUp {
			c.Add(r.Exec.Seconds())
		}
	}
	return c
}
