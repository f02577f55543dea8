package mapreduce

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"hybridmr/internal/apps"
	"hybridmr/internal/faults"
	"hybridmr/internal/simclock"
	"hybridmr/internal/units"
)

// batchScenario is one randomized replay for the attempt-batching
// equivalence property: a trace on one simulator or on the hybrid's two
// halves sharing an engine, under either policy, optionally with the crash
// demo schedule (compressed so its crash lands while the trace runs),
// injected failures and stragglers.
type batchScenario struct {
	Seeds     []uint32
	Fair      bool
	Shared    bool
	Crash     uint8
	Failure   uint8
	Jitter    uint8
	Speculate bool
}

// batchReplay is what one replay of a scenario exposes to the comparison.
type batchReplay struct {
	results        [][]Result
	retries        int
	events, timers uint64
	stop           *simclock.BudgetError // the watchdog's stop, if it fired
}

// compress scales a schedule's instants down by div, so a day-scale
// scenario hits a minutes-long test trace.
func compress(evs []faults.Event, div time.Duration) []faults.Event {
	out := make([]faults.Event, len(evs))
	for i, ev := range evs {
		ev.At /= div
		out[i] = ev
	}
	return out
}

// run replays the scenario with attempt batching on or forced off, under
// an event budget (0 = none).
func (sc batchScenario) run(t testing.TB, batched bool, sched *faults.Schedule, maxEvents uint64) (r batchReplay) {
	t.Helper()
	forceSingleAttempts = !batched
	defer func() { forceSingleAttempts = false }()
	cal := DefaultCalibration()
	st := NewReplayState()
	st.Engine().SetWatchdog(&simclock.Watchdog{MaxEvents: maxEvents})
	defer func() {
		if maxEvents > 0 {
			r.stop, _ = recover().(*simclock.BudgetError)
			r.events, r.timers = st.Engine().Events(), st.Engine().Timers()
		}
	}()
	sims := []*Simulator{st.Simulator(MustArch(OutOFS, cal))}
	schedules := [][]faults.Event{sched.ForBaseline()}
	if sc.Shared {
		sims = append(sims, st.Simulator(MustArch(UpOFS, cal)))
		schedules = [][]faults.Event{sched.ForCluster(faults.ClusterOut), sched.ForCluster(faults.ClusterUp)}
	}
	div := time.Duration(1 + sc.Crash%24)
	for i, sim := range sims {
		if sc.Fair {
			sim.SetPolicy(Fair)
		}
		if err := sim.ScheduleFaults(compress(schedules[i], div)); err != nil {
			t.Fatal(err)
		}
		if rate := float64(sc.Failure%3) * 0.02; rate > 0 {
			if err := sim.InjectFailures(rate, int64(42+i)); err != nil {
				t.Fatal(err)
			}
		}
		if frac := float64(sc.Jitter%3) * 0.1; frac > 0 {
			if err := sim.InjectStragglers(frac, sc.Speculate, int64(43+i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	profiles := []apps.Profile{apps.Wordcount(), apps.Grep(), apps.Sort(), apps.DFSIOWrite()}
	for i, s := range sc.Seeds {
		sims[int(s>>8)%len(sims)].Submit(Job{
			ID:     string(rune('a'+i%26)) + string(rune('0'+i/26)),
			App:    profiles[int(s)%len(profiles)],
			Input:  units.Bytes(s)*units.MB%(16*units.GB) + units.KB,
			Submit: time.Duration(s%900) * time.Second,
		})
	}
	st.Engine().Run()
	for _, sim := range sims {
		res := append([]Result(nil), sim.Results()...)
		for _, x := range res {
			r.retries += x.TaskRetries
		}
		r.results = append(r.results, res)
	}
	r.events, r.timers = st.Engine().Events(), st.Engine().Timers()
	return r
}

// TestBatchedAttemptsEquivalenceProperty is the batching contract as a
// property: for any trace, policy, crash-only schedule and injection mix,
// the batched replay produces the results, the kernel event count and the
// retry count of the replay that arms one timer per attempt.
func TestBatchedAttemptsEquivalenceProperty(t *testing.T) {
	var batchedTimers, events uint64
	var retries int
	f := func(sc batchScenario) bool {
		if len(sc.Seeds) == 0 || len(sc.Seeds) > 40 {
			return true
		}
		var sched *faults.Schedule
		if sc.Crash%4 != 0 {
			sched = faults.Demo()
		}
		want := sc.run(t, false, sched, 0)
		got := sc.run(t, true, sched, 0)
		if want.timers != want.events {
			t.Errorf("unbatched replay popped %d timers for %d events", want.timers, want.events)
		}
		batchedTimers += got.timers
		events += got.events
		retries += got.retries
		return reflect.DeepEqual(got.results, want.results) &&
			got.events == want.events && got.retries == want.retries
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
	if batchedTimers >= events {
		t.Errorf("batched replays popped %d timers for %d events: no batch formed", batchedTimers, events)
	}
	if retries == 0 {
		t.Error("no scenario re-executed a task: crash kills and failures went unexercised")
	}
}

// crashProbe replays a Fair trace on one simulator whose machines crash
// at 2 minutes, recording the in-flight batches just before and just after
// the crash.
func crashProbe(t *testing.T, batched bool) (maxBefore, partial int, res []Result, events uint64) {
	t.Helper()
	forceSingleAttempts = !batched
	defer func() { forceSingleAttempts = false }()
	crash := 2 * time.Minute
	sim := NewSimulator(MustArch(OutOFS, DefaultCalibration()))
	sim.SetPolicy(Fair)
	if err := sim.ScheduleFaults([]faults.Event{
		{At: crash, Kind: faults.MachineCrash, Cluster: faults.ClusterOut, Count: 5},
		{At: time.Hour, Kind: faults.MachineRecover, Cluster: faults.ClusterOut, Count: 5},
	}); err != nil {
		t.Fatal(err)
	}
	eng := sim.Engine()
	eng.At(crash-1, func(time.Duration) {
		for _, att := range sim.inflight {
			maxBefore = max(maxBefore, att.n)
		}
	})
	// Scheduled after the crash event, so it runs right behind it.
	eng.At(crash, func(time.Duration) {
		for _, att := range sim.inflight {
			if att.n < att.armed {
				partial++
			}
		}
	})
	for i, app := range []apps.Profile{apps.Wordcount(), apps.Sort(), apps.Grep()} {
		sim.Submit(Job{ID: app.Name, App: app, Input: 24 * units.GB, Submit: time.Duration(i) * time.Second})
	}
	res = sim.Run()
	return maxBefore, partial, res, eng.Events()
}

// A crash kills the newest attempts first, which is a suffix of each batch:
// here it cuts through batches, and the replay still matches the unbatched
// one result for result and event for event.
func TestBatchedAttemptsPartialKill(t *testing.T) {
	maxBefore, partial, got, events := crashProbe(t, true)
	if maxBefore < 2 || partial == 0 {
		t.Fatalf("largest batch before the crash %d, partly killed batches %d: the crash did not cut a batch", maxBefore, partial)
	}
	one, _, want, wantEvents := crashProbe(t, false)
	if one != 1 {
		t.Fatalf("forced-single replay formed a batch of %d", one)
	}
	if !reflect.DeepEqual(got, want) || events != wantEvents {
		t.Errorf("partly killed batches changed the replay: %d events, want %d", events, wantEvents)
	}
}

// A watchdog stops a batched replay at the same event, with the same
// error, as the unbatched one — also when the budget runs out mid-batch.
func TestBatchedAttemptsWatchdog(t *testing.T) {
	sc := batchScenario{Seeds: []uint32{7, 19, 3, 250, 77, 41, 960, 12, 513, 1029, 4099, 88}, Fair: true, Shared: true, Crash: 1}
	full := sc.run(t, true, faults.Demo(), 0)
	if full.timers >= full.events {
		t.Fatalf("%d timers for %d events: no batch formed", full.timers, full.events)
	}
	for _, budget := range []uint64{3, full.events / 3, full.events/2 + 1, full.events - 1} {
		got, want := sc.run(t, true, faults.Demo(), budget), sc.run(t, false, faults.Demo(), budget)
		if got.stop == nil || want.stop == nil || *got.stop != *want.stop || got.events != budget {
			t.Errorf("budget %d: batched stop %v after %d events, unbatched %v", budget, got.stop, got.events, want.stop)
		}
	}
}

// A fault schedule with a cpu or disk slowdown window makes the simulator
// arm only batches of one: every executed event is a popped timer, and the
// replay is the unbatched one.
func TestGrayWindowsArmSingleAttempts(t *testing.T) {
	sched, err := faults.Merge(faults.Demo(), faults.GrayDemo())
	if err != nil {
		t.Fatal(err)
	}
	sc := batchScenario{Fair: true, Shared: true, Crash: 1}
	for i := uint32(0); i < 40; i++ {
		sc.Seeds = append(sc.Seeds, i*7919)
	}
	got := sc.run(t, true, sched, 0)
	if got.timers != got.events {
		t.Errorf("gray-window replay popped %d timers for %d events: a batch above one formed", got.timers, got.events)
	}
	if want := sc.run(t, false, sched, 0); !reflect.DeepEqual(got, want) {
		t.Error("gray-window replay differs from the forced-single one")
	}
	clean := sc.run(t, true, nil, 0)
	if clean.timers >= clean.events {
		t.Errorf("the same trace without faults popped %d timers for %d events: no batch formed", clean.timers, clean.events)
	}
}

// TestArmAttemptJoinRule pins when a task start joins the open batch: only
// as the next member of the same run and kind at the same instant and
// slowdown, with nothing scheduled on the engine since the batch's timer.
// A crash ends the open batch, and a batch's firing closes it.
func TestArmAttemptJoinRule(t *testing.T) {
	const d, now = time.Minute, time.Second
	p := MustArch(OutOFS, DefaultCalibration())
	noop := simclock.Event(func(time.Duration) {})
	for _, tc := range []struct {
		name    string
		records int // in-flight records after the second start
		second  func(s *Simulator, run, other *jobRun)
	}{
		{"next member", 1, func(s *Simulator, run, _ *jobRun) { s.armAttempt(run, 9, true, d, now) }},
		{"event scheduled between", 2, func(s *Simulator, run, _ *jobRun) {
			s.eng.At(now+d, noop)
			s.armAttempt(run, 9, true, d, now)
		}},
		{"other run", 2, func(s *Simulator, _, other *jobRun) { s.armAttempt(other, 9, true, d, now) }},
		{"other kind", 2, func(s *Simulator, run, _ *jobRun) { s.armAttempt(run, 9, false, d, now) }},
		{"other instant", 2, func(s *Simulator, run, _ *jobRun) { s.armAttempt(run, 9, true, d+1, now) }},
		{"task ID gap", 2, func(s *Simulator, run, _ *jobRun) { s.armAttempt(run, 8, true, d, now) }},
		{"gray schedule", 2, func(s *Simulator, run, _ *jobRun) {
			s.single, s.batch = true, nil
			s.armAttempt(run, 9, true, d, now)
		}},
		{"crash kill", 2, func(s *Simulator, run, _ *jobRun) {
			s.armAttempt(run, 9, true, d, now)
			if killed := s.killAttempts(true, 1, now); killed != 1 {
				t.Fatalf("crash killed %d attempts, want 1", killed)
			}
			// The killed member 9 is re-queued; restarting it must not
			// slot it back into the batch whose timer still owes it a
			// stale drain.
			s.armAttempt(run, run.popTask(kMap), true, d, now)
		}},
	} {
		s := NewSimulator(p)
		run := s.newJobRun(Job{ID: "a"}, plan{mapTasks: 20, reducers: 1})
		other := s.newJobRun(Job{ID: "b"}, plan{mapTasks: 20, reducers: 1})
		run.runningMaps, other.runningMaps = 3, 3
		s.armAttempt(run, 10, true, d, now)
		tc.second(s, run, other)
		if got := len(s.inflight); got != tc.records {
			t.Errorf("%s: %d in-flight records, want %d", tc.name, got, tc.records)
		}
	}

	// Firing a batch closes it: a start after the fire opens a new one.
	s := NewSimulator(p)
	run := s.newJobRun(Job{ID: "a"}, plan{mapTasks: 20, reducers: 1})
	run.runningMaps = 2
	s.armAttempt(run, 10, true, d, now)
	s.armAttempt(run, 9, true, d, now)
	s.eng.Run()
	if s.batch != nil || len(s.inflight) != 0 || run.mapsDone != 2 {
		t.Errorf("after the fire: open batch %v, %d in flight, %d maps done", s.batch, len(s.inflight), run.mapsDone)
	}
}
