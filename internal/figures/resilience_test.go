package figures

import (
	"errors"
	"strings"
	"testing"
	"time"

	"hybridmr/internal/core"
	"hybridmr/internal/faults"
	"hybridmr/internal/obs"
	"hybridmr/internal/sweep"
	"hybridmr/internal/workload"
)

func TestRunResilienceDemo(t *testing.T) {
	jobs, err := workload.Generate(smallTraceConfig(600))
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunResilienceOpts(cal(), jobs, faults.Demo(), core.Inject{}, obs.Set{}, nil, ResilienceOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range r.archs() {
		if a.OK+a.Failed != r.Jobs {
			t.Errorf("%s: %d ok + %d failed != %d jobs", a.Name, a.OK, a.Failed, r.Jobs)
		}
	}
	if r.Clean.Failed != 0 || r.Clean.TaskRetries != 0 || r.Clean.Reroutes != 0 {
		t.Errorf("clean run not clean: %+v", r.Clean)
	}
	if r.FailureAware.Reroutes == 0 {
		t.Error("failure-aware run never rerouted under the demo schedule")
	}
	if r.Static.Reroutes != 0 || r.THadoop.Reroutes != 0 {
		t.Error("reroutes recorded outside the failure-aware hybrid")
	}
	out := r.Render()
	t.Logf("\n%s", out)
	if !strings.Contains(out, "verdict: failure-aware beats static Algorithm 1") {
		t.Error("demo schedule verdict is not a win for the failure-aware scheduler")
	}
	if strings.Contains(out, "replay errors") || strings.Contains(out, "Hybrid-FA-BL") {
		t.Error("zero-opts report grew error or blacklist sections")
	}
}

// A starvation-level watchdog budget stops every replay, yet the experiment
// still returns: each row carries its typed *sweep.PointError and Render
// shows the partial report instead of the call failing outright.
func TestResilienceBudgetPartialResults(t *testing.T) {
	jobs, err := workload.Generate(smallTraceConfig(60))
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunResilienceOpts(cal(), jobs, faults.Demo(), core.Inject{}, obs.Set{}, nil,
		ResilienceOpts{FABlacklist: true, Watchdog: sweep.Budget{MaxEvents: 25}})
	if err != nil {
		t.Fatalf("budget stop escalated to a whole-experiment error: %v", err)
	}
	errored := r.erroredArchs()
	if len(errored) != len(r.archs()) {
		t.Fatalf("%d of %d replays stopped under a 25-event budget", len(errored), len(r.archs()))
	}
	for _, a := range errored {
		var perr *sweep.PointError
		if !errors.As(a.Err, &perr) || perr.Budget == nil {
			t.Errorf("%s: error %v is not a budget point error", a.Name, a.Err)
		}
	}
	out := r.Render()
	if !strings.Contains(out, "replay errors:") || !strings.Contains(out, "budget") {
		t.Errorf("partial report missing the error section:\n%s", out)
	}
	if !strings.Contains(out, "Hybrid-FA-BL   -") {
		t.Errorf("stopped blacklist replay not rendered as a dash row:\n%s", out)
	}
}

// An ample budget changes nothing: the guarded run renders byte-identical to
// the unguarded one, and the sixth replay completes.
func TestResilienceAmpleBudgetMatchesUnguarded(t *testing.T) {
	jobs, err := workload.Generate(smallTraceConfig(120))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := RunResilienceOpts(cal(), jobs, faults.GrayDemo(), core.Inject{}, obs.Set{}, nil, ResilienceOpts{})
	if err != nil {
		t.Fatal(err)
	}
	guarded, err := RunResilienceOpts(cal(), jobs, faults.GrayDemo(), core.Inject{}, obs.Set{}, nil,
		ResilienceOpts{Watchdog: sweep.Budget{MaxEvents: 100_000_000, MaxSimTime: 10_000 * time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	if p, g := plain.Render(), guarded.Render(); p != g {
		t.Errorf("ample budget changed the report:\n--- unguarded\n%s\n--- guarded\n%s", p, g)
	}
	withBL, err := RunResilienceOpts(cal(), jobs, faults.GrayDemo(), core.Inject{}, obs.Set{}, nil,
		ResilienceOpts{FABlacklist: true})
	if err != nil {
		t.Fatal(err)
	}
	if withBL.FABlacklist == nil || withBL.FABlacklist.Err != nil {
		t.Fatalf("blacklist replay missing or failed: %+v", withBL.FABlacklist)
	}
	if got := withBL.FABlacklist.OK + withBL.FABlacklist.Failed; got != len(jobs) {
		t.Errorf("blacklist replay accounted for %d of %d jobs", got, len(jobs))
	}
	if !strings.Contains(withBL.Render(), "Hybrid-FA-BL") {
		t.Error("blacklist row missing from the rendered table")
	}
}
