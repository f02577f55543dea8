package figures

import (
	"fmt"

	"hybridmr/internal/core"
	"hybridmr/internal/mapreduce"
	"hybridmr/internal/stats"
	"hybridmr/internal/sweep"
	"hybridmr/internal/textplot"
	"hybridmr/internal/workload"
)

// TraceResult bundles the §V trace experiment's outcome for reuse by the
// figure, the CLI and the tests. Every slice is indexed by trace position.
type TraceResult struct {
	Jobs []workload.Job
	// Up marks the jobs Algorithm 1 routes to the scale-up cluster.
	Up []bool
	// Hybrid, THadoop and RHadoop hold per-job execution seconds.
	Hybrid, THadoop, RHadoop []float64
}

// RunTrace executes the trace experiment: the workload on the hybrid and on
// the two 24-machine baselines, under the Fair scheduler. The three replays
// are independent whole-cluster simulations — each runs on its own pooled
// replay state over the shared read-only job slice — so they run concurrently
// on the process-wide sweep runner's worker pool. The trace and the
// architectures come from the memoized shared setup (setup.go): a repeated
// render with the same calibration and config skips regeneration entirely.
func RunTrace(cal mapreduce.Calibration, cfg workload.Config) (*TraceResult, error) {
	setup, err := SharedSetup(cal, cfg)
	if err != nil {
		return nil, err
	}
	jobs, hybrid := setup.Jobs, setup.Hybrid
	tr := &TraceResult{Jobs: jobs, Up: make([]bool, len(jobs))}
	for i := range jobs {
		tr.Up[i] = hybrid.Sched.Decide(jobs[i]) == core.ScaleUp
	}
	// Each replay returns an accessor to its i-th result, from which its
	// column is filled in trace order.
	type results = func(i int) *mapreduce.Result
	baseline := func(p *mapreduce.Platform) func() results {
		return func() results {
			rs := core.RunBaseline(p, jobs, mapreduce.Fair)
			return func(i int) *mapreduce.Result { return &rs[i] }
		}
	}
	replays := []struct {
		name string
		into *[]float64
		run  func() results
	}{
		{"hybrid", &tr.Hybrid, func() results {
			rs := hybrid.Run(jobs)
			return func(i int) *mapreduce.Result { return &rs[i].Result }
		}},
		{"THadoop", &tr.THadoop, baseline(setup.THadoop)},
		{"RHadoop", &tr.RHadoop, baseline(setup.RHadoop)},
	}
	errs := sweep.Map(sweep.Default().Workers(), len(replays), func(i int) (err error) {
		*replays[i].into, err = ExecSeconds(jobs, replays[i].run())
		return err
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("figures: %s %w", replays[i].name, err)
		}
	}
	return tr, nil
}

// ExecSeconds returns one replay's per-job execution seconds by trace
// position. result(i) is the replay's i-th result, which must be jobs[i]'s
// and must have succeeded. The replay drivers return results in trace order
// for a trace sorted by Submit, then ID, as generated and file-read traces
// are.
func ExecSeconds(jobs []workload.Job, result func(i int) *mapreduce.Result) ([]float64, error) {
	exec := make([]float64, len(jobs))
	for i := range jobs {
		r := result(i)
		if r.Err != nil {
			return nil, fmt.Errorf("job %s: %w", r.Job.ID, r.Err)
		}
		if r.Job.ID != jobs[i].ID {
			return nil, fmt.Errorf("result %d is job %q, want %s", i, r.Job.ID, jobs[i].ID)
		}
		exec[i] = r.Exec.Seconds()
	}
	return exec, nil
}

// ClassCDF builds the execution-time CDF of one architecture's per-job
// seconds (tr.Hybrid, tr.THadoop or tr.RHadoop) for one job class.
func (tr *TraceResult) ClassCDF(exec []float64, up bool) *stats.CDF {
	// Trace order: CDF.Mean folds samples in insertion order, so the
	// unrounded mean is the same on every run.
	c := stats.NewCDF(nil)
	for i, u := range tr.Up {
		if u == up {
			c.Add(exec[i])
		}
	}
	return c
}

// Fig10 regenerates Figure 10: the CDFs of execution time of scale-up jobs
// (panel a) and scale-out jobs (panel b) under Hybrid, THadoop and RHadoop.
func Fig10(cal mapreduce.Calibration, cfg workload.Config) (textplot.Figure, error) {
	tr, err := RunTrace(cal, cfg)
	if err != nil {
		return textplot.Figure{}, err
	}
	panel := func(name string, upClass bool) (textplot.Panel, []string) {
		p := textplot.Panel{Name: name, XLabel: "CDF", YLabel: "execution time (s)"}
		var notes []string
		for _, arch := range []struct {
			name string
			exec []float64
		}{
			{"Hybrid", tr.Hybrid},
			{"THadoop", tr.THadoop},
			{"RHadoop", tr.RHadoop},
		} {
			cdf := tr.ClassCDF(arch.exec, upClass)
			var xs, ys []float64
			for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0} {
				xs = append(xs, q)
				ys = append(ys, cdf.Quantile(q))
			}
			p.Series = append(p.Series, textplot.Series{Name: arch.name, X: xs, Y: ys, Format: "%.2f"})
			notes = append(notes, fmt.Sprintf("%s %s max = %.2fs", name, arch.name, cdf.Max()))
		}
		return p, notes
	}
	a, notesA := panel("a: scale-up jobs", true)
	b, notesB := panel("b: scale-out jobs", false)
	fig := textplot.Figure{
		ID:     "Fig. 10",
		Title:  "Facebook trace experiment: execution-time CDFs per job class",
		Panels: []textplot.Panel{a, b},
		Notes:  append(notesA, notesB...),
	}
	fig.Notes = append(fig.Notes,
		"paper maxima — scale-up jobs: 48.53s (Hybrid), 83.37s (THadoop), 68.17s (RHadoop)",
		"paper maxima — scale-out jobs: 1207s (Hybrid), 3087s (THadoop), 2734s (RHadoop)",
		"scale-out-class divergence from the paper is analyzed in EXPERIMENTS.md")
	return fig, nil
}
