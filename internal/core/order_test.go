package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"hybridmr/internal/faults"
	"hybridmr/internal/mapreduce"
	"hybridmr/internal/sweep"
	"hybridmr/internal/workload"
)

// orderTraces returns a generated trace (sorted by Submit, then ID), a
// shuffled copy of it, and a shuffled copy in which every tenth job shares
// its successor's Submit instant with the later ID placed first.
func orderTraces(t *testing.T, n int, span time.Duration) (sorted, shuffled, tied []workload.Job) {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.Jobs = n
	cfg.Duration = span
	sorted, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	shuffled = slices.Clone(sorted)
	rng.Shuffle(len(shuffled), func(i, k int) { shuffled[i], shuffled[k] = shuffled[k], shuffled[i] })

	tied = slices.Clone(sorted)
	var pairs [][2]string
	for i := 0; i+1 < len(tied); i += 10 {
		tied[i].Submit = tied[i+1].Submit
		pairs = append(pairs, [2]string{tied[i].ID, tied[i+1].ID})
	}
	rng.Shuffle(len(tied), func(i, k int) { tied[i], tied[k] = tied[k], tied[i] })
	pos := make(map[string]int, len(tied))
	for i, j := range tied {
		pos[j.ID] = i
	}
	for _, p := range pairs {
		// Put the later ID first, so the tie is out of ID order.
		if a, b := pos[p[0]], pos[p[1]]; a < b {
			tied[a], tied[b] = tied[b], tied[a]
		}
	}
	return sorted, shuffled, tied
}

// checkArrivalOrder requires one result per job, in (Submit, ID) order.
func checkArrivalOrder(t *testing.T, name string, jobs []workload.Job, rs []mapreduce.Result) {
	t.Helper()
	if len(rs) != len(jobs) {
		t.Fatalf("%s: %d results for %d jobs", name, len(rs), len(jobs))
	}
	want := slices.Clone(rs)
	slices.SortFunc(want, func(a, b mapreduce.Result) int { return byArrival(&a, &b) })
	if !reflect.DeepEqual(rs, want) {
		t.Errorf("%s: results not in (Submit, ID) order", name)
	}
	seen := make(map[string]bool, len(rs))
	for _, r := range rs {
		seen[r.Job.ID] = true
	}
	for _, j := range jobs {
		if !seen[j.ID] {
			t.Fatalf("%s: no result for job %s", name, j.ID)
		}
	}
}

// untagged drops the hybrid results' trace-index tags, which differ between
// permutations of the same trace.
func untagged(rs []JobResult) []mapreduce.Result {
	out := make([]mapreduce.Result, len(rs))
	for i := range rs {
		out[i] = rs[i].Result
		out[i].Job.Tag = 0
	}
	return out
}

// The replay drivers write each result at its job's trace index and sort
// only when the trace is not in (Submit, ID) order. Whatever the input
// order, they return the (Submit, ID) order, and a reordered trace without
// ties replays exactly like the sorted one. Baseline results carry the
// caller's Tag (0), not the index the driver rides on it.
func TestReplayResultOrder(t *testing.T) {
	sorted, shuffled, tied := orderTraces(t, 300, 45*time.Minute)
	th, err := mapreduce.NewTHadoop(mapreduce.DefaultCalibration())
	if err != nil {
		t.Fatal(err)
	}
	h := newHybridT(t)

	base := RunBaseline(th, sorted, mapreduce.Fair)
	checkArrivalOrder(t, "baseline sorted", sorted, base)
	for i := range base {
		if base[i].Job.ID != sorted[i].ID {
			t.Fatalf("baseline sorted: result %d is %s, want %s", i, base[i].Job.ID, sorted[i].ID)
		}
	}
	hy := untagged(h.Run(sorted))
	checkArrivalOrder(t, "hybrid sorted", sorted, hy)

	if got := RunBaseline(th, shuffled, mapreduce.Fair); !reflect.DeepEqual(got, base) {
		t.Error("baseline: shuffled trace replays differently from the sorted one")
	}
	if got := untagged(h.Run(shuffled)); !reflect.DeepEqual(got, hy) {
		t.Error("hybrid: shuffled trace replays differently from the sorted one")
	}

	// One adjacent pair out of order at either end of a sorted trace.
	for _, at := range []int{0, len(sorted) - 2} {
		swapped := slices.Clone(sorted)
		swapped[at], swapped[at+1] = swapped[at+1], swapped[at]
		checkArrivalOrder(t, "baseline swapped", swapped, RunBaseline(th, swapped, mapreduce.Fair))
		checkArrivalOrder(t, "hybrid swapped", swapped, untagged(h.Run(swapped)))
	}

	tiedBase := RunBaseline(th, tied, mapreduce.Fair)
	checkArrivalOrder(t, "baseline tied", tied, tiedBase)
	checkArrivalOrder(t, "hybrid tied", tied, untagged(h.Run(tied)))

	for _, rs := range [][]mapreduce.Result{base, tiedBase} {
		for _, r := range rs {
			if r.Job.Tag != 0 {
				t.Fatalf("baseline job %s: Tag %d, want the caller's 0", r.Job.ID, r.Job.Tag)
			}
		}
	}
	for i, r := range h.Run(tied) {
		if want := slices.IndexFunc(tied, func(j workload.Job) bool { return j.ID == r.Job.ID }); r.Job.Tag != want {
			t.Fatalf("hybrid result %d (%s): Tag %d, want its trace index %d", i, r.Job.ID, r.Job.Tag, want)
		}
	}
}

// The same unordered trace under crash and gray faults, task failures and
// the full failure-aware router: both drivers keep every invariant, job
// conservation included, and return (Submit, ID) order.
func TestReplayResultOrderFaulted(t *testing.T) {
	_, _, tied := orderTraces(t, 400, 10*time.Hour)
	sched, err := faults.Merge(faults.Demo(), faults.GrayDemo())
	if err != nil {
		t.Fatal(err)
	}
	inj := Inject{FailureRate: 0.2, StragglerFrac: 0.1, Speculate: true, Seed: 3}
	th, err := mapreduce.NewTHadoop(mapreduce.DefaultCalibration())
	if err != nil {
		t.Fatal(err)
	}

	inv := mapreduce.NewInvariantChecker()
	base, err := RunBaselineChecked(th, tied, mapreduce.Fair, sched.ForBaseline(), inj, nil, sweep.Budget{}, inv)
	if err != nil {
		t.Fatal(err)
	}
	if !inv.Ok() {
		t.Errorf("baseline invariants: %v", inv.Err())
	}
	checkArrivalOrder(t, "faulted baseline", tied, base)

	inv = mapreduce.NewInvariantChecker()
	hy, err := newHybridT(t).RunFaulted(tied, FaultRun{
		Schedule: sched, Inject: inj, FailureAware: true, Blacklist: true, CloneStragglers: true,
		Invariants: inv,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !inv.Ok() {
		t.Errorf("hybrid invariants: %v", inv.Err())
	}
	checkArrivalOrder(t, "faulted hybrid", tied, untagged(hy))
	retried := 0
	for _, r := range hy {
		if r.Attempts > 1 {
			retried++
		}
	}
	if retried == 0 {
		t.Error("no job was retried: the replay never took the retry path")
	}
}
