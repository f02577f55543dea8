package figures

import (
	"testing"
	"testing/quick"
	"time"

	"hybridmr/internal/core"
	"hybridmr/internal/faults"
	"hybridmr/internal/obs"
	"hybridmr/internal/sweep"
	"hybridmr/internal/workload"
)

// TestReplayDeterminism is the end-to-end determinism contract (DESIGN.md
// §8) as a test: replaying the full 6000-job FB-2009 trace twice in the same
// process — clean Fig10 trace replay and faulted resilience replay — must
// render byte-identical reports. Each run gets a fresh sweep runner so the
// memoized cache cannot mask a nondeterministic recomputation, and the two
// runs use different worker counts so scheduling noise has every chance to
// surface if any order-sensitive fold slips in.
func TestReplayDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full 6000-job trace replay")
	}
	cfg := workload.DefaultConfig()
	jobs, err := workload.Generate(cfg)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}

	old := sweep.Default()
	defer sweep.SetDefault(old)

	replay := func(workers int) (clean, faulted string) {
		t.Helper()
		sweep.SetDefault(sweep.New(workers))
		f10, err := Fig10(cal(), cfg)
		if err != nil {
			t.Fatalf("Fig10: %v", err)
		}
		r, err := RunResilienceOpts(cal(), jobs, faults.Demo(), core.Inject{}, obs.Set{}, nil, ResilienceOpts{})
		if err != nil {
			t.Fatalf("RunResilienceOpts: %v", err)
		}
		return f10.Render(), r.Render()
	}

	clean1, faulted1 := replay(2)
	clean2, faulted2 := replay(8)

	if clean1 != clean2 {
		t.Errorf("clean trace replay diverged between runs:\nrun1:\n%s\nrun2:\n%s", clean1, clean2)
	}
	if faulted1 != faulted2 {
		t.Errorf("faulted trace replay diverged between runs:\nrun1:\n%s\nrun2:\n%s", faulted1, faulted2)
	}
}

// TestResilienceWorkerCountProperty: the rendered resilience report is
// independent of the sweep runner's worker count — any w in [1, 8] must
// render byte-identically to the serial (w=1) run. Randomizing w (rather
// than pinning two counts) gives every interleaving of the 5 concurrent
// pooled replays a chance to expose order-sensitive state sharing.
func TestResilienceWorkerCountProperty(t *testing.T) {
	cfg := workload.DefaultConfig()
	cfg.Jobs = 300
	cfg.Duration = 72 * time.Minute // keep the full trace's arrival rate
	jobs, err := workload.Generate(cfg)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	inj := core.Inject{FailureRate: 0.01, StragglerFrac: 0.1, Speculate: true, Seed: 5}

	old := sweep.Default()
	defer sweep.SetDefault(old)

	render := func(workers int) string {
		t.Helper()
		sweep.SetDefault(sweep.New(workers))
		r, err := RunResilienceOpts(cal(), jobs, faults.Demo(), inj, obs.Set{}, nil, ResilienceOpts{})
		if err != nil {
			t.Fatalf("RunResilienceOpts(workers=%d): %v", workers, err)
		}
		return r.Render()
	}
	serial := render(1)

	f := func(v uint8) bool {
		w := 1 + int(v%8)
		return render(w) == serial
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}
