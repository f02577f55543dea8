package simclock

import (
	"slices"
	"testing"
	"time"
)

// tickRun is what one runTicks replay reports: the engine's counters, the
// watchdog stop (nil when the run finished), how many members ran, and the
// event count at every Cancel poll.
type tickRun struct {
	events, timers uint64
	berr           *BudgetError
	members        int
	polls          []uint64
}

// runTicks replays k groups of j logical events, group g at instant g·1s,
// either as k·j separate timers (batched false) or as k timers whose
// callbacks run their group's j members back to back, calling Tick before
// each member after the first (batched true).
func runTicks(k, j int, batched bool, w Watchdog) tickRun {
	e := New()
	var r tickRun
	if w.Cancel != nil {
		cancel := w.Cancel
		w.Cancel = func() bool {
			r.polls = append(r.polls, e.Events())
			return cancel()
		}
	}
	e.SetWatchdog(&w)
	member := func(time.Duration) { r.members++ }
	for g := 0; g < k; g++ {
		at := time.Duration(g) * time.Second
		if !batched {
			for i := 0; i < j; i++ {
				e.At(at, member)
			}
			continue
		}
		e.At(at, func(now time.Duration) {
			member(now)
			for i := 1; i < j; i++ {
				e.Tick()
				member(now)
			}
		})
	}
	r.berr = runGuarded(e)
	r.events, r.timers = e.Events(), e.Timers()
	return r
}

// Tick counts one event per batch member: k timers that each Tick j−1
// times report the Events() of k·j separate timers, and Timers() counts
// only the popped ones.
func TestTickCountsPerMember(t *testing.T) {
	const k, j = 37, 5
	sep := runTicks(k, j, false, Watchdog{})
	bat := runTicks(k, j, true, Watchdog{})
	if sep.events != k*j || bat.events != k*j {
		t.Fatalf("events separate %d, batched %d, want %d", sep.events, bat.events, k*j)
	}
	if sep.timers != k*j || bat.timers != k {
		t.Errorf("timers separate %d, batched %d, want %d and %d", sep.timers, bat.timers, k*j, k)
	}
	if sep.members != k*j || bat.members != k*j {
		t.Errorf("members separate %d, batched %d, want %d", sep.members, bat.members, k*j)
	}
}

// MaxEvents trips at the same logical event — mid-batch here, since the
// budget is not a multiple of the batch size — with the same BudgetError.
func TestTickEventBudget(t *testing.T) {
	const k, j = 40, 7
	for _, budget := range []uint64{1, 6, 7, 8, 100, 279} {
		w := Watchdog{MaxEvents: budget}
		sep := runTicks(k, j, false, w)
		bat := runTicks(k, j, true, w)
		if sep.berr == nil || bat.berr == nil {
			t.Fatalf("budget %d: watchdog did not trip (separate %v, batched %v)", budget, sep.berr, bat.berr)
		}
		if *sep.berr != *bat.berr || sep.berr.Error() != bat.berr.Error() {
			t.Errorf("budget %d: batched stop %+v %q, separate %+v %q", budget, *bat.berr, bat.berr, *sep.berr, sep.berr)
		}
		if sep.members != int(budget) || bat.members != int(budget) {
			t.Errorf("budget %d: members run separate %d, batched %d", budget, sep.members, bat.members)
		}
	}
	// A budget the run fits in never trips.
	if bat := runTicks(k, j, true, Watchdog{MaxEvents: k * j}); bat.berr != nil {
		t.Errorf("in-budget batched run stopped: %v", bat.berr)
	}
}

// The Cancel hook is polled at the same 1024-event cadence whether the
// events were popped or ticked, and a cancellation stops the run at the
// same logical event with the same error.
func TestTickCancelCadence(t *testing.T) {
	const k, j = 700, 6
	never := Watchdog{Cancel: func() bool { return false }}
	sep := runTicks(k, j, false, never)
	bat := runTicks(k, j, true, never)
	if !slices.Equal(sep.polls, bat.polls) {
		t.Fatalf("cancel polls separate %v, batched %v", sep.polls, bat.polls)
	}
	if want := []uint64{0, 1024, 2048, 3072, 4096}; !slices.Equal(bat.polls, want) {
		t.Errorf("cancel polled at %v, want %v", bat.polls, want)
	}
	calls := 0
	third := Watchdog{Cancel: func() bool { calls++; return calls == 3 }}
	sep = runTicks(k, j, false, third)
	calls = 0
	bat = runTicks(k, j, true, third)
	if sep.berr == nil || bat.berr == nil || !bat.berr.Canceled {
		t.Fatalf("cancellation did not stop both runs: separate %v, batched %v", sep.berr, bat.berr)
	}
	if *sep.berr != *bat.berr || sep.members != bat.members || bat.members != 2048 {
		t.Errorf("batched stop %+v after %d members, separate %+v after %d, want 2048",
			*bat.berr, bat.members, *sep.berr, sep.members)
	}
}

// Tick and Seq are allocation-free and Seq moves only on scheduling.
func TestTickSeqAllocs(t *testing.T) {
	e := New()
	e.SetWatchdog(&Watchdog{MaxEvents: 1 << 40})
	seq := e.Seq()
	if avg := testing.AllocsPerRun(100, func() { e.Tick(); _ = e.Seq() }); avg != 0 {
		t.Errorf("Tick+Seq: %v allocs/op, want 0", avg)
	}
	if e.Seq() != seq {
		t.Errorf("Tick moved Seq from %d to %d", seq, e.Seq())
	}
	e.At(0, func(time.Duration) {})
	if e.Seq() != seq+1 {
		t.Errorf("At moved Seq from %d to %d, want +1", seq, e.Seq())
	}
	e.Reset()
	if e.Seq() != 0 || e.Events() != 0 || e.Timers() != 0 {
		t.Errorf("Reset left seq %d, events %d, timers %d", e.Seq(), e.Events(), e.Timers())
	}
}
