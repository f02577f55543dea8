package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"

	"hybridmr/internal/faults"
	"hybridmr/internal/mapreduce"
	"hybridmr/internal/obs"
	"hybridmr/internal/sweep"
	"hybridmr/internal/workload"
)

// Inject bundles the simulator's task-level chaos knobs (failure and
// straggler injection) so the CLI and the resilience experiments configure
// both halves of the hybrid — and the baselines — identically.
type Inject struct {
	// FailureRate is the per-task-attempt failure probability; 0 disables.
	FailureRate float64
	// StragglerFrac is the duration-jitter fraction; 0 disables.
	StragglerFrac float64
	// Speculate enables speculative execution for stragglers.
	Speculate bool
	// Seed seeds the injection RNGs (stragglers use Seed+1, so the two
	// streams stay independent).
	Seed int64
}

// Apply configures a simulator with the injection knobs, surfacing the
// simulator's own validation errors verbatim.
func (in Inject) Apply(sim *mapreduce.Simulator) error {
	if in.FailureRate != 0 {
		if err := sim.InjectFailures(in.FailureRate, in.Seed); err != nil {
			return err
		}
	}
	if in.StragglerFrac != 0 {
		if err := sim.InjectStragglers(in.StragglerFrac, in.Speculate, in.Seed+1); err != nil {
			return err
		}
	}
	return nil
}

// ReplayStats receives kernel statistics from one replay. The counters are
// deterministic (they count simulation events, not wall time), so callers may
// compare them across runs.
type ReplayStats struct {
	// Events is the number of events the simulation kernel executed.
	Events uint64
	// Timers is the number of those events that were kernel timers popped
	// from the pending set. Events - Timers task completions rode the timer
	// of a batch of same-instant attempts of one job.
	Timers uint64
}

// FaultRun configures a trace replay under a fault schedule.
type FaultRun struct {
	// Schedule is the fault timeline; nil or empty replays a clean run.
	Schedule *faults.Schedule
	// FailureAware extends Algorithm 1 with per-half health: a job whose
	// preferred half is degraded is rerouted when the other half's
	// estimated completion wins, and failed jobs are retried with bounded
	// attempts and exponential backoff in simulated time. False replays
	// the paper's static Algorithm 1 under the same faults.
	FailureAware bool
	// MaxJobAttempts bounds submissions per job under FailureAware
	// (including the first); ≤ 0 means 3.
	MaxJobAttempts int
	// RetryBackoff is the first retry delay, doubling per attempt; ≤ 0
	// means 30s of simulated time.
	RetryBackoff time.Duration
	// Inject adds task-level chaos on both halves.
	Inject Inject
	// Blacklist enables per-half flaky-cluster benching: a half whose jobs
	// keep failing accumulates strikes, and at BlacklistStrikes it is
	// benched for BlacklistParole of simulated time — doubling per bench,
	// capped at 8× — during which new jobs route to the other half (unless
	// both are benched). Strikes reset when the bench is served.
	Blacklist bool
	// BlacklistStrikes is the job failures that bench a half; ≤ 0 means 3.
	BlacklistStrikes int
	// BlacklistParole is the first bench duration; ≤ 0 means 10m.
	BlacklistParole time.Duration
	// CloneStragglers enables speculative clone attempts on both halves: when
	// a gray slowdown window pushes a cluster past CloneThreshold, its
	// in-flight attempts get healthy-speed backups and the first finisher
	// wins.
	CloneStragglers bool
	// CloneThreshold is the gray slowdown that triggers cloning; ≤ 0 means
	// 1.5.
	CloneThreshold float64
	// Watchdog bounds the replay's kernel: exceeding the budget panics with
	// a *simclock.BudgetError, which sweep.Protect converts into a typed
	// per-point error at the experiment layer. The zero budget is unlimited.
	Watchdog sweep.Budget
	// Runner memoizes the ETA probes of the failure-aware scheduler; nil
	// uses the process-wide default.
	Runner *sweep.Runner
	// Stats, when non-nil, receives the replay's kernel statistics after the
	// run completes (the resilience report's events/sec footer reads them).
	Stats *ReplayStats
	// Obs attaches observability: the tracer and metrics registry are
	// forwarded to both halves' simulators, and the audit log receives one
	// record per routing decision (including retries). The zero Set observes
	// nothing and keeps the replay's hot path allocation-free.
	Obs obs.Set
	// Invariants, when non-nil, attaches the invariant layer to both halves'
	// simulators and extends it with the hybrid-level contracts: workload
	// conservation (one JobResult per job), the job-attempt bound, the
	// blacklist parole cap, and quiescence at drain. The chaos engine
	// (internal/chaos) replays every campaign round with one attached; nil
	// costs nothing.
	Invariants *mapreduce.InvariantChecker
}

func (opt *FaultRun) defaults() (int, time.Duration, *sweep.Runner) {
	maxAttempts := opt.MaxJobAttempts
	if maxAttempts <= 0 {
		maxAttempts = 3
	}
	backoff := opt.RetryBackoff
	if backoff <= 0 {
		backoff = 30 * time.Second
	}
	runner := opt.Runner
	if runner == nil {
		runner = sweep.Default()
	}
	return maxAttempts, backoff, runner
}

// blacklistDefaults resolves the benching knobs.
func (opt *FaultRun) blacklistDefaults() (int, time.Duration) {
	strikes := opt.BlacklistStrikes
	if strikes <= 0 {
		strikes = 3
	}
	parole := opt.BlacklistParole
	if parole <= 0 {
		parole = 10 * time.Minute
	}
	return strikes, parole
}

// benchState is one half's blacklist account: consecutive job-failure
// strikes, the exponential bench level already served, and the sim-time
// instant the current bench ends.
type benchState struct {
	strikes int
	level   int
	until   time.Duration
}

// bench serves a bench: parole doubled per prior bench, capped at 8×.
func (b *benchState) bench(now, parole time.Duration) {
	shift := b.level
	if shift > 3 {
		shift = 3
	}
	b.until = now + parole<<shift
	b.level++
	b.strikes = 0
}

// other flips a routing target.
func other(t Target) Target {
	if t == ScaleUp {
		return ScaleOut
	}
	return ScaleUp
}

// RunFaulted is the hybrid's replay driver. Both halves share one simulated
// clock, each with its own slot pools, and every job is routed at its
// arrival instant, so the load balancer and the failure-aware scheduler see
// live state. The zero FaultRun replays the healthy hybrid (Run). It returns
// one result per job in (Submit, Job.ID) order. The returned error reports
// an unsurvivable or incoherent schedule (or bad injection bounds), before
// any simulation runs.
func (h *Hybrid) RunFaulted(jobs []workload.Job, opt FaultRun) ([]JobResult, error) {
	if h.Sched == nil {
		return nil, fmt.Errorf("core: hybrid has no scheduler")
	}
	maxAttempts, backoff, runner := opt.defaults()
	strikesCap, parole := opt.blacklistDefaults()
	fp := opt.Schedule.Fingerprint()

	// The replay runs on pooled state: engine heap, simulators, job and
	// attempt records all come back warm from earlier replays. The deferred
	// release also runs on a watchdog panic, so an over-budget replay's
	// half-consumed state is reset and recycled, not leaked.
	rst := mapreduce.AcquireState()
	defer mapreduce.ReleaseState(rst)
	eng := rst.Engine()
	if w := opt.Watchdog.Watchdog(nil); w != nil {
		eng.SetWatchdog(w)
	}
	upSim := rst.Simulator(h.Up)
	outSim := rst.Simulator(h.Out)
	upSim.SetPolicy(h.Policy)
	outSim.SetPolicy(h.Policy)
	upSim.SetObserver(opt.Obs.Trace, opt.Obs.Metrics)
	outSim.SetObserver(opt.Obs.Trace, opt.Obs.Metrics)
	if opt.Invariants != nil {
		upSim.SetInvariants(opt.Invariants)
		outSim.SetInvariants(opt.Invariants)
	}
	if err := opt.Inject.Apply(upSim); err != nil {
		return nil, err
	}
	if err := opt.Inject.Apply(outSim); err != nil {
		return nil, err
	}
	if opt.CloneStragglers {
		threshold := opt.CloneThreshold
		if threshold <= 0 {
			threshold = 1.5
		}
		if err := upSim.SpeculateClones(threshold); err != nil {
			return nil, err
		}
		if err := outSim.SpeculateClones(threshold); err != nil {
			return nil, err
		}
	}
	// Faults are scheduled before any submission, so at equal instants the
	// capacity change precedes the arrival (the engine is FIFO per tick).
	if err := upSim.ScheduleFaults(opt.Schedule.ForCluster(faults.ClusterUp)); err != nil {
		return nil, err
	}
	if err := outSim.ScheduleFaults(opt.Schedule.ForCluster(faults.ClusterOut)); err != nil {
		return nil, err
	}

	// The hooks below capture only the options they read: FaultRun is over
	// 128 bytes, so capturing opt itself would move it to the heap.
	failureAware, blacklist := opt.FailureAware, opt.Blacklist
	audit, trace, inv := opt.Obs.Audit, opt.Obs.Trace, opt.Invariants

	// state tracks one workload job (jobs[idx]) across its (possibly
	// retried) submissions; the latest routing decision wins.
	type state struct {
		target   Target // Algorithm 1's static choice
		dest     Target // where the job actually went
		rerouted bool
		attempts int
	}
	// One backing array for every job's state, indexed by trace position.
	// The index rides the submitted job's Tag and comes back in its Result,
	// so tracking 6000 jobs costs one allocation and no hashing.
	backing := make([]state, len(jobs))
	// The hooks' mutable state shares one heap cell. Each finished job's
	// result is written at its trace index, so nothing is moved after the
	// drain; filled counts the writes for the conservation check.
	acc := struct {
		results []JobResult
		filled  int
		bench   [2]benchState // blacklist accounts, indexed by Target
	}{results: make([]JobResult, len(jobs))}

	submit := func(idx int) {
		st := &backing[idx]
		job := jobs[idx]
		st.attempts++
		target := h.Sched.Decide(job)
		dest := target
		rerouted := false
		var probe healthProbe
		if failureAware {
			d, pr := h.rerouteForHealth(job, target, upSim, outSim, runner, fp)
			probe = pr
			if d != target {
				dest, rerouted = d, true
			}
		}
		blacklisted := false
		var benchUntil time.Duration
		if blacklist {
			now := eng.Now()
			if now < acc.bench[dest].until && now >= acc.bench[other(dest)].until {
				benchUntil = acc.bench[dest].until
				dest, blacklisted = other(dest), true
			}
		}
		if h.Balance != nil {
			dest = h.Balance.Divert(dest, upSim, outSim)
		}
		st.target, st.dest, st.rerouted = target, dest, rerouted
		if audit.Enabled() {
			cross := h.Sched.CrossPoints()
			audit.Record(obs.Decision{
				At:              eng.Now(),
				Job:             job.ID,
				App:             job.App.Name,
				Size:            job.SchedulingSize(),
				Ratio:           float64(job.App.ShuffleInputRatio),
				RatioKnown:      job.RatioKnown,
				Threshold:       cross.Threshold(job.App.ShuffleInputRatio, job.RatioKnown),
				Static:          target.String(),
				Dest:            dest.String(),
				Attempt:         st.attempts,
				Rerouted:        rerouted,
				Diverted:        dest != target,
				Probed:          probe.probed,
				PrefETA:         probe.prefETA,
				AltETA:          probe.altETA,
				PrefOK:          probe.prefOK,
				AltOK:           probe.altOK,
				UpMachinesDown:  upSim.MachinesDown(),
				OutMachinesDown: outSim.MachinesDown(),
				UpStorageDown:   upSim.StorageDown(),
				OutStorageDown:  outSim.StorageDown(),
				Blacklisted:     blacklisted,
				BenchUntil:      benchUntil,
			})
		}
		mj := job.MapReduceJob()
		mj.Tag = idx
		if dest == ScaleUp {
			upSim.SubmitNow(mj)
		} else {
			outSim.SubmitNow(mj)
		}
	}

	record := func(r mapreduce.Result, now time.Duration) {
		idx := r.Job.Tag
		st := &backing[idx]
		if blacklist && r.Err != nil {
			// The half the job actually failed on takes the strike.
			b := &acc.bench[st.dest]
			b.strikes++
			if b.strikes >= strikesCap {
				b.bench(now, parole)
				if inv != nil && b.until-now > parole<<3 {
					inv.Violate("blacklist-parole", "%s benched until %v at %v: bench exceeds the 8x parole cap (%v)",
						st.dest, b.until, now, parole<<3)
				}
				if trace.Enabled() {
					trace.Instant("hybrid", "blacklist", "bench", now,
						st.dest.String()+" benched until "+b.until.String())
				}
			}
		}
		if r.Err != nil && failureAware && st.attempts < maxAttempts {
			// Exponential backoff in simulated time; the retry is
			// re-routed at its new arrival instant, so it sees the
			// cluster's health then.
			delay := backoff << (st.attempts - 1)
			eng.After(delay, func(time.Duration) { submit(idx) })
			return
		}
		// Time the job from its original arrival: queueing plus every
		// retry round trip counts against it.
		r.Submit = jobs[idx].Submit
		r.Exec = r.End - r.Submit
		acc.results[idx] = JobResult{
			Result:   r,
			Target:   st.target,
			Diverted: st.dest != st.target,
			Rerouted: st.rerouted,
			Attempts: st.attempts,
		}
		acc.filled++
	}
	upSim.SetResultHook(record)
	outSim.SetResultHook(record)

	scheduleArrivals(eng, jobs, submit)
	eng.Run()
	if opt.Stats != nil {
		opt.Stats.Events, opt.Stats.Timers = eng.Events(), eng.Timers()
	}
	results := acc.results
	if inv != nil {
		upSim.CheckDrainedInvariants()
		outSim.CheckDrainedInvariants()
		if acc.filled != len(jobs) {
			inv.Violate("job-conservation", "hybrid: %d jobs submitted, %d results", len(jobs), acc.filled)
		}
		for i := range results {
			// A slot with 0 attempts is a job that never finished, which
			// job-conservation above already reports.
			if a := results[i].Attempts; a > maxAttempts {
				inv.Violate("task-attempts", "hybrid: job %s finished with %d attempts, budget [1,%d]",
					results[i].Job.ID, a, maxAttempts)
			}
		}
	}
	sortByArrival(results, func(r *JobResult) *mapreduce.Result { return &r.Result })
	return results, nil
}

// byArrival is the (Submit, Job.ID) order the replay drivers return results
// in: a total order, since job IDs are unique.
func byArrival(a, b *mapreduce.Result) int {
	if a.Submit != b.Submit {
		return cmp.Compare(a.Submit, b.Submit)
	}
	return strings.Compare(a.Job.ID, b.Job.ID)
}

// sortByArrival puts a driver's results in byArrival order. Each driver
// writes a job's result at its trace index, so for a trace already in that
// order (generated and file-read traces are) this is one in-place scan and
// no sort; the scan compares through pointers, where slices.IsSortedFunc
// would copy two result values per step.
func sortByArrival[T any](rs []T, result func(*T) *mapreduce.Result) {
	for i := 1; i < len(rs); i++ {
		if byArrival(result(&rs[i-1]), result(&rs[i])) > 0 {
			slices.SortFunc(rs, func(a, b T) int { return byArrival(result(&a), result(&b)) })
			return
		}
	}
}

// healthProbe reports what the failure-aware reroute looked at, for the
// decision audit log: whether ETA probes ran at all, and each half's
// estimate with its validity flag.
type healthProbe struct {
	probed          bool
	prefETA, altETA time.Duration
	prefOK, altOK   bool
}

// rerouteForHealth is the failure-aware extension of Algorithm 1: when the
// preferred half is degraded (machines or storage down, or a gray slowdown
// window open), both halves' completion times are estimated — the isolated
// run on the half's currently degraded platform view, stretched by its queue
// backlog and gray slowdown — and the job moves only when the other half
// strictly wins. A healthy preferred half is never second-guessed, so under
// an empty schedule the routing is exactly Algorithm 1's. The returned probe
// carries the ETA evidence for the audit log (zero when the health gate
// short-circuited).
func (h *Hybrid) rerouteForHealth(job workload.Job, preferred Target, upSim, outSim *mapreduce.Simulator, runner *sweep.Runner, faultsFP uint64) (Target, healthProbe) {
	prefSim, altSim, alt := upSim, outSim, ScaleOut
	if preferred == ScaleOut {
		prefSim, altSim, alt = outSim, upSim, ScaleUp
	}
	if prefSim.MachinesDown() == 0 && prefSim.StorageDown() == 0 && !prefSim.GrayActive() {
		return preferred, healthProbe{}
	}
	var probe healthProbe
	probe.probed = true
	probe.prefETA, probe.prefOK = etaOn(prefSim, job, runner, faultsFP)
	probe.altETA, probe.altOK = etaOn(altSim, job, runner, faultsFP)
	switch {
	case !probe.prefOK && probe.altOK:
		// The degraded half cannot even plan the job (capacity); the
		// other half can.
		return alt, probe
	case probe.prefOK && probe.altOK && probe.altETA < probe.prefETA:
		return alt, probe
	}
	return preferred, probe
}

// etaOn estimates a job's completion time on one half right now: the
// isolated execution on the half's degraded platform view (which carries any
// gray network throttle), scaled by (1 + queued maps / map slots) for the
// backlog in front of it and by the half's attempt-level gray slowdown.
// Estimates are memoized under the fault schedule's fingerprint, so they
// never alias clean sweep entries; the gray view's distinct platform name
// keeps throttled entries from aliasing binary-degraded ones.
func etaOn(sim *mapreduce.Simulator, job workload.Job, runner *sweep.Runner, faultsFP uint64) (time.Duration, bool) {
	p, err := sim.PlatformNow()
	if err != nil {
		return 0, false
	}
	r := runner.RunIsolatedFaulted(p, job.MapReduceJob(), faultsFP)
	if r.Err != nil {
		return 0, false
	}
	load := 1 + float64(sim.MapQueueDepth())/float64(sim.MapSlotCapacity())
	return time.Duration(float64(r.Exec) * load * sim.GraySlowdown()), true
}

// RunBaselineChecked is the traditional architectures' replay driver: the
// undivided baseline replays the given fault events (callers pass
// Schedule.ForBaseline()) under the injection knobs. Failed jobs stay failed
// — the traditional architectures have no second half to retry on. A
// non-nil stats receives the replay's executed-event count. A nonzero
// budget guards the kernel: an over-budget replay stops by panicking with a
// *simclock.BudgetError, which callers convert into a typed per-point error
// via sweep.Protect. A non-nil checker attaches the invariant layer to the
// whole replay and the drain. It returns one result per job in (Submit,
// Job.ID) order.
func RunBaselineChecked(p *mapreduce.Platform, jobs []workload.Job, policy mapreduce.Policy, events []faults.Event, inj Inject, stats *ReplayStats, budget sweep.Budget, inv *mapreduce.InvariantChecker) ([]mapreduce.Result, error) {
	rst := mapreduce.AcquireState()
	defer mapreduce.ReleaseState(rst)
	sim := rst.Simulator(p)
	if w := budget.Watchdog(nil); w != nil {
		sim.Engine().SetWatchdog(w)
	}
	sim.SetPolicy(policy)
	if inv != nil {
		sim.SetInvariants(inv)
	}
	if err := inj.Apply(sim); err != nil {
		return nil, err
	}
	if err := sim.ScheduleFaults(events); err != nil {
		return nil, err
	}
	// Each finished job's result is written at its trace index, which rides
	// the submitted job's Tag; the hook resets Tag to the caller's zero, so
	// nothing of the pooled simulator escapes and nothing is copied after.
	rs := make([]mapreduce.Result, len(jobs))
	filled := 0
	sim.SetResultHook(func(r mapreduce.Result, _ time.Duration) {
		idx := r.Job.Tag
		r.Job.Tag = 0
		rs[idx] = r
		filled++
	})
	for i := range jobs {
		mj := jobs[i].MapReduceJob()
		mj.Tag = i
		sim.Submit(mj)
	}
	// Run drains the engine and panics on jobs still in flight; with the
	// hook set, its result view is empty.
	sim.Run()
	if inv != nil {
		sim.CheckDrainedInvariants()
		if filled != len(jobs) {
			inv.Violate("job-conservation", "%s: %d jobs submitted, %d results", p.Name, len(jobs), filled)
		}
	}
	sortByArrival(rs, func(r *mapreduce.Result) *mapreduce.Result { return r })
	if stats != nil {
		stats.Events, stats.Timers = sim.Engine().Events(), sim.Engine().Timers()
	}
	return rs, nil
}
