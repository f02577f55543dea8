package core

import (
	"math"
	"testing"

	"hybridmr/internal/mapreduce"
	"hybridmr/internal/sweep"
)

// ReplayStats is the replay's event census: the events the kernel executed
// and the timers it popped for them. A clean trace replay batches the
// same-instant task attempts of a job under one timer, so timers stay well
// below events; asking for the census allocates nothing.
func TestReplayStatsCensus(t *testing.T) {
	h := newHybridT(t)
	th, err := mapreduce.NewTHadoop(mapreduce.DefaultCalibration())
	if err != nil {
		t.Fatal(err)
	}
	jobs := budgetTrace(t)
	var hs, bs ReplayStats
	hybrid := func(st *ReplayStats) {
		if _, err := h.RunFaulted(jobs, FaultRun{Stats: st}); err != nil {
			t.Fatal(err)
		}
	}
	baseline := func(st *ReplayStats) {
		if _, err := RunBaselineChecked(th, jobs, mapreduce.Fair, nil, Inject{}, st, sweep.Budget{}, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		hybrid(&hs)
		baseline(&bs)
	}
	for _, c := range []struct {
		name string
		st   ReplayStats
	}{{"hybrid", hs}, {"THadoop", bs}} {
		t.Logf("%s: %d events, %d timers", c.name, c.st.Events, c.st.Timers)
		if c.st.Timers == 0 || 2*c.st.Timers > c.st.Events {
			t.Errorf("%s: %d timers for %d events, want at least 2 events per timer", c.name, c.st.Timers, c.st.Events)
		}
	}
	for _, c := range []struct {
		name string
		run  func(*ReplayStats)
	}{{"Hybrid.RunFaulted", hybrid}, {"RunBaselineChecked", baseline}} {
		// Alternate the two and keep each side's minimum, so a one-off
		// growth of pooled state in either window does not decide it.
		with, without := math.Inf(1), math.Inf(1)
		for i := 0; i < 3; i++ {
			without = min(without, testing.AllocsPerRun(5, func() { c.run(nil) }))
			with = min(with, testing.AllocsPerRun(5, func() { c.run(&hs) }))
		}
		if with > without {
			t.Errorf("%s allocates %.0f times with the census, %.0f without", c.name, with, without)
		}
	}
}
