package mapreduce

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"

	"hybridmr/internal/simclock"
	"hybridmr/internal/stats"
)

// Policy selects how a cluster's slots are shared among concurrent jobs.
type Policy int

const (
	// FIFO serves tasks in job-arrival order — Hadoop 1.x's default
	// JobQueueTaskScheduler. The paper's isolated measurements (§III)
	// are policy-independent; FIFO matters only under concurrency.
	FIFO Policy = iota
	// Fair shares slots max-min across runnable jobs, like the Fair
	// Scheduler Facebook ran in production (the paper cites it as [4]).
	// The §V trace experiment uses it: it is what keeps small jobs
	// responsive on THadoop while large jobs starve — exactly the
	// asymmetry Fig. 10 shows.
	Fair
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case FIFO:
		return "fifo"
	case Fair:
		return "fair"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// taskKind indexes the per-kind dispatch state (ready sets, intrusive
// linkage) on Simulator and jobRun.
const (
	kMap = iota
	kRed
	nKinds
)

// Simulator runs an arriving workload of jobs on one platform, sharing its
// map and reduce slot pools among concurrent jobs under the configured
// scheduling policy. Task durations come from the platform's cost model;
// queueing (the effect the paper blames for THadoop's poor performance in
// §V) emerges from the slot accounting.
//
// Every field must be restored by recycle() or reinit() — the pooled-state
// reuse contract (replaystate.go); the two deliberate carry-overs below are
// annotated where they are declared.
//
//simlint:exhaustive recycle,reinit
type Simulator struct {
	platform *Platform
	eng      *simclock.Engine
	policy   Policy

	freeMap, freeRed int
	capMap, capRed   int
	setupMaps        int       // map tasks of jobs still in their setup phase
	queuedMaps       int       // pending map tasks across active jobs (O(1) MapQueueDepth)
	active           []*jobRun // jobs with pending or running tasks (swap-remove via activeIdx)
	results          []Result
	running          int
	seq              int

	// ready indexes the jobs a free slot can go to, per task kind — the
	// former pickMap/pickReduce linear scans over every active job, made
	// incremental: FIFO keeps an intrusive arrival-ordered list (O(1)
	// pick), Fair a positional heap on (running tasks, arrival), updated
	// as tasks start and finish.
	ready [nKinds]readySet

	// Failure injection (Hadoop re-executes failed tasks, up to
	// Cal.MaxTaskAttempts, mirroring mapred.map.max.attempts).
	failureRate float64
	failRNG     *stats.RNG

	// Straggler injection: per-attempt duration jitter, plus optional
	// speculative execution (Hadoop launches a backup attempt for slow
	// tasks and takes whichever finishes first).
	jitterFrac  float64
	speculative bool
	jitterRNG   *stats.RNG
	jitterVar   stats.LogUniformVar

	// Utilization accounting: slot-seconds integrated over simulated time,
	// O(1) per slot-count transition (no rescan of active jobs).
	lastChange time.Duration
	mapSlotNs  int64
	redSlotNs  int64

	// Fault injection (faultsim.go): current machine/storage losses, the
	// memoized degraded platform views jobs are planned against, and the
	// in-flight attempts a crash can kill (swap-remove via attempt.idx,
	// recycled through attemptFree).
	machinesDown int
	storageDown  int
	degraded     map[degradeKey]*Platform
	inflight     []*attempt
	attemptSeq   uint64
	attemptFree  []*attempt

	// Attempt batching (armAttempt): batch is the open batch the next task
	// start may join, batchSeq the engine's Seq right after its timer was
	// armed; single arms only batches of one (the fault schedule has a cpu
	// or disk slowdown window).
	batch    *attempt
	batchSeq uint64
	single   bool

	// jobFree recycles jobRun records: a completed (or fully drained
	// failed) job's run returns here and the next arrival reuses it, so
	// steady-state job traffic allocates no per-job state (replaystate.go).
	// It deliberately survives recycle(): pooled runs are engine-agnostic
	// (recycleJob zeroes them) and keeping them warm is the whole point.
	jobFree []*jobRun //simlint:allow fieldcover the warm run pool is the cross-replay carry-over; recycleJob zeroes each pooled record

	// Arrival queue: monotone submissions ride one shared event instead of
	// a per-job closure. Queued arrivals fire in (at, seq) order, which is
	// exactly queue order, so nextArrival pops arrivals[arriveNext]; a job
	// submitted out of order (behind lastQueued) falls back to a closure.
	arrivals   []Job
	arriveNext int
	// arriveFn is the bound nextArrival method, created once in
	// NewSimulatorOn and engine-independent, so it survives recycle().
	arriveFn   simclock.Event //simlint:allow fieldcover bound method of the simulator itself; rebinding per recycle would allocate for no observable change
	lastQueued time.Duration

	// Gray degradation (graysim.go): the per-stream attempt-level slowdown
	// weights (1 = clean), the planning-level network factors, the
	// speculative-clone threshold (0 = clones disabled), and the clone
	// counters SpeculationStats reports.
	cpuSlow, diskSlow float64
	nicSlow, rackSlow float64
	cloneThreshold    float64
	clonesStarted     int
	clonesWon         int

	// onResult, when set, receives finished results instead of the
	// internal list (SetResultHook).
	onResult func(Result, time.Duration)

	// obsv holds the observability sinks (observe.go); the zero value is
	// inert and keeps the hot path allocation-free.
	obsv simObs

	// inv holds the invariant layer (invariants.go); the zero value is
	// detached and the hook sites cost one nil compare.
	inv invState
}

// NewSimulator creates an empty FIFO simulator for the platform with its
// own clock.
func NewSimulator(p *Platform) *Simulator {
	return NewSimulatorOn(simclock.New(), p)
}

// NewSimulatorOn creates a simulator bound to an existing engine, so that
// several clusters (e.g. the hybrid's scale-up and scale-out halves) share
// one simulated clock while keeping separate slot pools.
func NewSimulatorOn(eng *simclock.Engine, p *Platform) *Simulator {
	s := &Simulator{
		platform: p,
		eng:      eng,
		freeMap:  p.Spec.MapSlots(),
		freeRed:  p.Spec.ReduceSlots(),
		capMap:   p.Spec.MapSlots(),
		capRed:   p.Spec.ReduceSlots(),
		cpuSlow:  1,
		diskSlow: 1,
		nicSlow:  1,
		rackSlow: 1,
	}
	s.ready[kMap].kind = kMap
	s.ready[kRed].kind = kRed
	s.arriveFn = s.nextArrival
	return s
}

// SetPolicy selects the slot-sharing policy; call before Run.
func (s *Simulator) SetPolicy(p Policy) {
	s.policy = p
	s.ready[kMap].policy = p
	s.ready[kRed].policy = p
}

// InjectFailures makes each task attempt fail with probability rate; a
// failed attempt occupies its slot for the full task duration and is then
// re-executed, up to the calibration's MaxTaskAttempts (Hadoop 1.x defaults
// to four) — after which the whole job fails. Deterministic per seed. Call
// before Run.
func (s *Simulator) InjectFailures(rate float64, seed int64) error {
	if rate < 0 || rate >= 1 {
		return fmt.Errorf("mapreduce: failure rate %v outside [0,1)", rate)
	}
	s.failureRate = rate
	s.failRNG = stats.NewRNG(seed)
	return nil
}

// attemptFails draws one failure decision.
//
//simlint:hotpath
func (s *Simulator) attemptFails() bool {
	return s.failureRate > 0 && s.failRNG.Float64() < s.failureRate
}

// InjectStragglers gives every task attempt a log-uniform duration jitter
// in [1/(1+frac), 1+frac] (mean-preserving in log space); with speculate
// set, attempts jittered beyond the speculation threshold run at the
// backup's typical speed instead, modelling Hadoop's speculative execution
// (a backup attempt starts once the original looks slow, and the faster of
// the two wins). Deterministic per seed. Call before Run.
func (s *Simulator) InjectStragglers(frac float64, speculate bool, seed int64) error {
	if frac < 0 || frac > 10 {
		return fmt.Errorf("mapreduce: straggler fraction %v outside [0,10]", frac)
	}
	s.jitterFrac = frac
	s.speculative = speculate
	s.jitterRNG = stats.NewRNG(seed)
	if frac > 0 {
		s.jitterVar = stats.NewLogUniformVar(1/(1+frac), 1+frac)
	}
	return nil
}

// jitterDuration applies the straggler model to one attempt's duration.
//
//simlint:hotpath
func (s *Simulator) jitterDuration(d time.Duration) time.Duration {
	if s.jitterFrac <= 0 {
		return d
	}
	f := s.jitterVar.Sample(s.jitterRNG)
	if s.speculative {
		// A backup attempt caps how slow the task can effectively
		// be: once the original exceeds SpeculationCap× the typical
		// duration, the speculative copy (jitter-free, started late)
		// finishes at about that bound.
		if cap := s.platform.Cal.SpeculationCap; f > cap {
			f = cap
		}
	}
	return time.Duration(float64(d) * f)
}

// Policy returns the slot-sharing policy.
func (s *Simulator) Policy() Policy { return s.policy }

// Submit schedules a job at its Submit time. It must be called before Run.
//
//simlint:hotpath
func (s *Simulator) Submit(job Job) {
	s.running++
	if s.inv.checker != nil {
		s.inv.submitted++
	}
	if job.Submit >= s.lastQueued {
		// Monotone arrival (the common case: traces are sorted by Submit
		// and SubmitNow tracks the advancing clock): enqueue the job and
		// schedule the shared arrival event — no per-job closure. Queued
		// events fire in (at, seq) FIFO order, which equals queue order,
		// so the i-th firing starts the i-th queued job; a closure-path
		// job interleaving at the same instant keeps its own seq slot,
		// leaving the relative order identical to per-job closures.
		s.lastQueued = job.Submit
		s.arrivals = append(s.arrivals, job)
		s.eng.At(job.Submit, s.arriveFn)
		return
	}
	// Out-of-order submission (tests and ad-hoc drivers only; trace replays
	// arrive sorted and take the shared-event path above).
	s.eng.At(job.Submit, func(now time.Duration) { s.startJob(job, now) }) //simlint:allow hotalloc out-of-order submissions are off the replay path; sorted traces use the closure-free arrival queue
}

// nextArrival is the shared arrival event: it pops the next queued job and
// starts it. The vacated slot is cleared so the job's strings are released,
// and the queue rewinds to reuse its capacity once drained.
//
//simlint:hotpath
func (s *Simulator) nextArrival(now time.Duration) {
	job := s.arrivals[s.arriveNext]
	s.arrivals[s.arriveNext] = Job{}
	s.arriveNext++
	if s.arriveNext == len(s.arrivals) {
		s.arrivals = s.arrivals[:0]
		s.arriveNext = 0
	}
	s.startJob(job, now)
}

// SubmitAll submits every job in the slice.
func (s *Simulator) SubmitAll(jobs []Job) {
	for _, j := range jobs {
		s.Submit(j)
	}
}

// SubmitNow schedules a job at the current simulated time, for use from
// inside another event (the hybrid scheduler decides at arrival time).
func (s *Simulator) SubmitNow(job Job) {
	job.Submit = s.eng.Now()
	s.Submit(job)
}

// Run executes the workload to completion and returns the per-job results
// ordered by submission time (ties by job ID).
func (s *Simulator) Run() []Result {
	s.eng.Run()
	return s.Results()
}

// Results returns the finished jobs' results, sorted by submission time
// (ties by job ID). It panics if the engine was drained with jobs still in
// flight — a model bug, not a workload condition. The capture-free
// slices.SortFunc keeps the post-drain tail off the allocator (sort.Slice
// costs a closure plus a reflect swapper per call).
//
//simlint:hotpath
func (s *Simulator) Results() []Result {
	if s.eng.Pending() == 0 && s.running != 0 {
		panic(fmt.Sprintf("mapreduce: %d jobs still running after drain", s.running))
	}
	slices.SortFunc(s.results, func(a, b Result) int {
		if a.Submit != b.Submit {
			return cmp.Compare(a.Submit, b.Submit)
		}
		return strings.Compare(a.Job.ID, b.Job.ID)
	})
	return s.results
}

// Engine exposes the simulated clock, for tests and shared-clock setups.
func (s *Simulator) Engine() *simclock.Engine { return s.eng }

// MapQueueDepth reports map tasks waiting for a slot right now, including
// tasks of jobs still in their setup phase; the load balancer extension
// uses it. O(1): the counts are maintained incrementally.
func (s *Simulator) MapQueueDepth() int { return s.setupMaps + s.queuedMaps }

// MapSlotsInUse reports currently occupied map slots.
func (s *Simulator) MapSlotsInUse() int { return s.capMap - s.freeMap }

// MapSlotCapacity reports the cluster's total map slots.
func (s *Simulator) MapSlotCapacity() int { return s.capMap }

// accrue integrates busy slot-seconds up to the current instant; call
// before any slot-count change. O(1) per transition: only the elapsed
// interval and the current busy counts are read, never the job list.
//
//simlint:hotpath
func (s *Simulator) accrue(now time.Duration) {
	if dt := int64(now - s.lastChange); dt > 0 {
		s.mapSlotNs += dt * int64(s.capMap-s.freeMap)
		s.redSlotNs += dt * int64(s.capRed-s.freeRed)
		s.lastChange = now
	}
}

// Utilization reports the time-averaged busy fraction of the map and reduce
// slot pools over [0, Engine().Now()]. Call after Run.
func (s *Simulator) Utilization() (mapUtil, redUtil float64) {
	s.accrue(s.eng.Now())
	total := s.eng.Now().Seconds()
	if total <= 0 {
		return 0, 0
	}
	return float64(s.mapSlotNs) / 1e9 / (total * float64(s.capMap)),
		float64(s.redSlotNs) / 1e9 / (total * float64(s.capRed))
}

// jobRun tracks one in-flight job. Runs are pooled: completeJob (and the
// last attempt drain of a failed job) returns the record to the simulator's
// freelist, and the next arrival reuses it, so steady-state job traffic
// allocates nothing per job. Every field must be restored before reuse:
// recycleJob zeroes the per-job state, newJobRun rebinds the identity and
// the once-per-object bound events, and the ready-set unlink operations
// (listRemove/heapRemove) reset the intrusive linkage.
//
//simlint:exhaustive recycleJob,newJobRun,listRemove,heapRemove
type jobRun struct {
	sim    *Simulator
	job    Job
	pl     plan
	seq    int // submission order, for FIFO and tie-breaks
	submit time.Duration
	start  time.Duration

	// Pending-task bookkeeping. The former pendingMapIDs/pendingRedIDs
	// slices held [base, base+n) and popped from the end; the counter
	// representation reproduces that order with no per-job allocation:
	// initial IDs are issued by counting initX down (base+initX-1 first),
	// and re-queued IDs (crash kills, injected failures, lost map outputs)
	// pop LIFO from the reqX stacks first — exactly the old end-pop order.
	initMaps, initReds int
	reqMaps, reqReds   []int

	doneMapIDs               []int // completed maps, re-queued on machine loss
	runningMaps, runningReds int
	mapsDone, redsDone       int
	shuffling                bool
	attempts                 map[int]int // failed attempts per logical task
	failed                   bool
	retries                  int

	firstMapAt  time.Duration
	startedMap  bool
	lastMapDone time.Duration
	shuffleDone time.Duration

	// setupFn and shuffleFn are the bound setupDone/shuffleFire methods,
	// created once per jobRun object and reused across recycles, so a job
	// start and a map-phase end schedule their follow-ups without
	// allocating a closure (the same trick attempt.fireFn uses).
	setupFn   simclock.Event
	shuffleFn simclock.Event

	// Dispatch-index linkage, one slot per task kind. activeIdx is the
	// job's position in Simulator.active; next/prev/inList are the FIFO
	// ready list's intrusive pointers; heapPos is the Fair ready heap's
	// position+1 (0 = absent).
	activeIdx  int
	next, prev [nKinds]*jobRun
	inList     [nKinds]bool
	heapPos    [nKinds]int
}

// pendingLen returns the job's pending-task count of one kind.
//
//simlint:hotpath
func (r *jobRun) pendingLen(kind int) int {
	if kind == kMap {
		return r.initMaps + len(r.reqMaps)
	}
	return r.initReds + len(r.reqReds)
}

// popTask issues the next pending task ID of one kind: re-queued IDs first
// (LIFO), then the initial range counting down — byte-identical to popping
// the former pending-ID slice from the end.
//
//simlint:hotpath
func (r *jobRun) popTask(kind int) int {
	if kind == kMap {
		if n := len(r.reqMaps); n > 0 {
			id := r.reqMaps[n-1]
			r.reqMaps = r.reqMaps[:n-1]
			return id
		}
		r.initMaps--
		return r.initMaps
	}
	if n := len(r.reqReds); n > 0 {
		id := r.reqReds[n-1]
		r.reqReds = r.reqReds[:n-1]
		return id
	}
	r.initReds--
	return r.pl.mapTasks + r.initReds
}

// pushTask re-queues a task ID (failure retry, crash kill, lost map output).
//
//simlint:hotpath
func (r *jobRun) pushTask(kind, id int) {
	if kind == kMap {
		r.reqMaps = append(r.reqMaps, id)
	} else {
		r.reqReds = append(r.reqReds, id)
	}
}

// newJobRun acquires a run record for a starting job, reusing a recycled one
// when the freelist has it. The bound setup/shuffle events are created once
// per object; everything else is (re)initialized here.
//
//simlint:hotpath
func (s *Simulator) newJobRun(job Job, pl plan) *jobRun {
	var run *jobRun
	if n := len(s.jobFree); n > 0 {
		run = s.jobFree[n-1]
		s.jobFree[n-1] = nil
		s.jobFree = s.jobFree[:n-1]
	} else {
		run = &jobRun{} //simlint:allow hotalloc freelist miss: allocates only until the job pool reaches the workload's high-water mark
		run.setupFn = run.setupDone
		run.shuffleFn = run.shuffleFire
	}
	s.seq++
	run.sim, run.job, run.pl, run.seq, run.submit = s, job, pl, s.seq, job.Submit
	return run
}

// recycleJob returns a drained run to the freelist. Only completeJob and
// retireFailed may call it: at those points no attempt, ready set, active
// slot or pending engine event references the run (killed and superseded
// attempts draining stale timers keep the pointer but never dereference it).
//
//simlint:hotpath
func (s *Simulator) recycleJob(run *jobRun) {
	run.sim = nil
	run.job = Job{}
	run.pl = plan{}
	run.seq = 0
	run.submit, run.start = 0, 0
	run.initMaps, run.initReds = 0, 0
	run.reqMaps = run.reqMaps[:0]
	run.reqReds = run.reqReds[:0]
	run.doneMapIDs = run.doneMapIDs[:0]
	run.runningMaps, run.runningReds = 0, 0
	run.mapsDone, run.redsDone = 0, 0
	run.shuffling = false
	clear(run.attempts)
	run.failed = false
	run.retries = 0
	run.firstMapAt, run.startedMap = 0, false
	run.lastMapDone, run.shuffleDone = 0, 0
	// The dispatch linkage is already clean — removeActive, listRemove and
	// heapRemove reset their back-pointers — so only activeIdx needs its
	// absent sentinel.
	run.activeIdx = -1
	s.jobFree = append(s.jobFree, run)
}

// retireFailed recycles a failed job's run once its last in-flight attempt
// has drained. runningMaps+runningReds counts exactly the attempts (clones
// included) still referencing the run, so zero means no live reference
// remains; failJob emptied the pending sets and removed the active slot.
//
//simlint:hotpath
func (s *Simulator) retireFailed(run *jobRun) {
	if run.failed && run.runningMaps == 0 && run.runningReds == 0 {
		s.recycleJob(run)
	}
}

// runningOf returns the job's running-task count of one kind (Fair's key).
//
//simlint:hotpath
func (r *jobRun) runningOf(kind int) int {
	if kind == kMap {
		return r.runningMaps
	}
	return r.runningReds
}

// readySet indexes the active jobs holding pending tasks of one kind — the
// incremental replacement for scanning every active job per slot grant.
//
// Under FIFO the set is an intrusive doubly-linked list kept in ascending
// submission order: pick is the head in O(1), and insertion is O(1) in the
// fault-free steady state (jobs become runnable in arrival order, so they
// append at the tail); only a fault/failure re-queue of an old job walks
// from the head. Under Fair it is a positional binary min-heap keyed on
// (running tasks, submission seq) with back-pointers on jobRun, fixed
// incrementally as tasks start and finish. Both pick exactly the job the
// former pickMap/pickReduce scans chose: the key orders are total (seq is
// unique), so the minimum is unique and replay output is byte-identical.
type readySet struct {
	policy     Policy
	kind       int
	head, tail *jobRun   // FIFO list
	heap       []*jobRun // Fair heap
}

// pick returns the job the next free slot goes to, or nil.
//
//simlint:hotpath
func (rs *readySet) pick() *jobRun {
	if rs.policy == Fair {
		if len(rs.heap) == 0 {
			return nil
		}
		return rs.heap[0]
	}
	return rs.head
}

// set reconciles the job's membership: insert when it became ready, remove
// when it no longer is, re-position (Fair) when its key may have changed.
//
//simlint:hotpath
func (rs *readySet) set(r *jobRun, ready bool) {
	if rs.policy == Fair {
		in := r.heapPos[rs.kind] != 0
		switch {
		case ready && !in:
			rs.heapPush(r)
		case ready && in:
			rs.heapFix(r)
		case !ready && in:
			rs.heapRemove(r)
		}
		return
	}
	in := r.inList[rs.kind]
	switch {
	case ready && !in:
		rs.listInsert(r)
	case !ready && in:
		rs.listRemove(r)
	}
}

//simlint:hotpath
func (rs *readySet) listInsert(r *jobRun) {
	k := rs.kind
	r.inList[k] = true
	if rs.tail == nil {
		r.prev[k], r.next[k] = nil, nil
		rs.head, rs.tail = r, r
		return
	}
	if r.seq > rs.tail.seq {
		r.prev[k], r.next[k] = rs.tail, nil
		rs.tail.next[k] = r
		rs.tail = r
		return
	}
	// Re-entry of an old job (fault or failure re-queue): it belongs near
	// the front, so walk from the head.
	n := rs.head
	for n.seq < r.seq {
		n = n.next[k]
	}
	r.prev[k], r.next[k] = n.prev[k], n
	if n.prev[k] != nil {
		n.prev[k].next[k] = r
	} else {
		rs.head = r
	}
	n.prev[k] = r
}

//simlint:hotpath
func (rs *readySet) listRemove(r *jobRun) {
	k := rs.kind
	if r.prev[k] != nil {
		r.prev[k].next[k] = r.next[k]
	} else {
		rs.head = r.next[k]
	}
	if r.next[k] != nil {
		r.next[k].prev[k] = r.prev[k]
	} else {
		rs.tail = r.prev[k]
	}
	r.prev[k], r.next[k] = nil, nil
	r.inList[k] = false
}

// less orders the Fair heap: fewest running tasks first (max-min fairness),
// oldest submission on ties.
//
//simlint:hotpath
func (rs *readySet) less(a, b *jobRun) bool {
	ka, kb := a.runningOf(rs.kind), b.runningOf(rs.kind)
	return ka < kb || (ka == kb && a.seq < b.seq)
}

//simlint:hotpath
func (rs *readySet) heapPush(r *jobRun) {
	rs.heap = append(rs.heap, r)
	r.heapPos[rs.kind] = len(rs.heap)
	rs.heapUp(len(rs.heap) - 1)
}

//simlint:hotpath
func (rs *readySet) heapSwap(i, j int) {
	rs.heap[i], rs.heap[j] = rs.heap[j], rs.heap[i]
	rs.heap[i].heapPos[rs.kind] = i + 1
	rs.heap[j].heapPos[rs.kind] = j + 1
}

//simlint:hotpath
func (rs *readySet) heapUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !rs.less(rs.heap[i], rs.heap[p]) {
			break
		}
		rs.heapSwap(i, p)
		i = p
	}
}

//simlint:hotpath
func (rs *readySet) heapDown(i int) {
	n := len(rs.heap)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		best := l
		if r := l + 1; r < n && rs.less(rs.heap[r], rs.heap[l]) {
			best = r
		}
		if !rs.less(rs.heap[best], rs.heap[i]) {
			return
		}
		rs.heapSwap(i, best)
		i = best
	}
}

//simlint:hotpath
func (rs *readySet) heapFix(r *jobRun) {
	i := r.heapPos[rs.kind] - 1
	rs.heapUp(i)
	rs.heapDown(i)
}

//simlint:hotpath
func (rs *readySet) heapRemove(r *jobRun) {
	i := r.heapPos[rs.kind] - 1
	last := len(rs.heap) - 1
	if i != last {
		rs.heapSwap(i, last)
	}
	rs.heap[last] = nil
	rs.heap = rs.heap[:last]
	r.heapPos[rs.kind] = 0
	if i != last {
		rs.heapUp(i)
		rs.heapDown(i)
	}
}

// touch reconciles the job's ready-set state after any change to its
// pending or running task counts of one kind. Every mutation site calls it;
// keeping the rule that blunt keeps the index impossible to desynchronize.
//
//simlint:hotpath
func (s *Simulator) touch(kind int, run *jobRun) {
	s.ready[kind].set(run, !run.failed && run.pendingLen(kind) > 0)
}

// removeActive drops a finished or failed job from the active list in O(1).
//
//simlint:hotpath
func (s *Simulator) removeActive(run *jobRun) {
	i := run.activeIdx
	last := len(s.active) - 1
	s.active[i] = s.active[last]
	s.active[i].activeIdx = i
	s.active[last] = nil
	s.active = s.active[:last]
	run.activeIdx = -1
}

//simlint:hotpath
func (s *Simulator) startJob(job Job, now time.Duration) {
	// Plan against the platform as degraded right now: a job arriving with
	// machines or storage down gets slower tasks, narrower waves and the
	// degraded capacity check.
	p, err := s.PlatformNow()
	var pl plan
	if err == nil {
		pl, err = p.planJob(job)
	}
	if err != nil {
		s.traceJobRejected(job, now, err)
		s.finish(Result{Job: job, Platform: s.platform.Name, Submit: job.Submit, Err: err}, now)
		return
	}
	run := s.newJobRun(job, pl)
	// Job setup (staging, setup task) precedes the first map launch; the
	// bound setupFn is the run's own, so scheduling it allocates nothing.
	s.setupMaps += pl.mapTasks
	s.eng.After(pl.overhead, run.setupFn)
}

// setupDone ends the job's setup phase: its map tasks become pending and the
// job joins the active set. Bound once per jobRun as setupFn.
//
//simlint:hotpath
func (r *jobRun) setupDone(now time.Duration) {
	s := r.sim
	s.setupMaps -= r.pl.mapTasks
	r.start = now
	s.obsv.trace.Span(s.obsv.track, r.job.ID, "setup", r.submit, now)
	r.initMaps = r.pl.mapTasks
	s.queuedMaps += r.pl.mapTasks
	r.activeIdx = len(s.active)
	s.active = append(s.active, r)
	s.touch(kMap, r)
	s.dispatch(now)
}

// shuffleFire ends the shuffle phase: the reduce tasks become pending. Bound
// once per jobRun as shuffleFn; it fires exactly once per job lifecycle —
// mapsDone cannot regress during the shuffle window (loseCompletedMaps skips
// jobs already past their map phase), so the event is never double-armed.
//
//simlint:hotpath
func (r *jobRun) shuffleFire(now time.Duration) {
	s := r.sim
	r.shuffling = false
	r.shuffleDone = now
	s.obsv.trace.Span(s.obsv.track, r.job.ID, "shuffle", r.lastMapDone, now)
	// Reduce task ids follow the map ids.
	r.initReds = r.pl.reducers
	s.touch(kRed, r)
	s.dispatch(now)
}

// dispatch hands out free slots until none remain or nothing is runnable.
//
//simlint:hotpath
func (s *Simulator) dispatch(now time.Duration) {
	s.noteSlots() // queue depth peaks before slots are granted
	for s.freeMap > 0 {
		run := s.ready[kMap].pick()
		if run == nil {
			break
		}
		s.startMapTask(run, now)
	}
	for s.freeRed > 0 {
		run := s.ready[kRed].pick()
		if run == nil {
			break
		}
		s.startReduceTask(run, now)
	}
	s.noteSlots() // busy slots peak after the grants
	if s.inv.checker != nil {
		s.invSlots()
	}
}

//simlint:hotpath
func (s *Simulator) startMapTask(run *jobRun, now time.Duration) {
	s.accrue(now)
	s.freeMap--
	taskID := run.popTask(kMap)
	s.queuedMaps--
	run.runningMaps++
	s.obsv.mapsStarted.Inc()
	s.touch(kMap, run)
	if !run.startedMap {
		run.startedMap = true
		run.firstMapAt = now
	}
	s.armAttempt(run, taskID, true, s.jitterDuration(run.pl.mapTask), now)
}

// mapTaskDone is a map attempt's completion: the slot frees, and the task
// either re-queues (injected failure under the attempt budget), fails the
// job, or counts toward the map phase, whose end schedules the shuffle.
//
//simlint:hotpath
func (s *Simulator) mapTaskDone(run *jobRun, taskID int, now time.Duration) {
	s.accrue(now)
	s.freeMap++
	run.runningMaps--
	if s.attemptFails() && !run.failed {
		if s.recordFailure(run, taskID) {
			// Re-execute: the task goes back to pending.
			run.pushTask(kMap, taskID)
			s.queuedMaps++
			run.retries++
			s.traceRetry(run, taskID, true, now, "failed")
			s.touch(kMap, run)
			s.dispatch(now)
			return
		}
		s.failJob(run, now, "map")
		s.dispatch(now)
		return
	}
	if run.failed {
		s.touch(kMap, run)
		s.retireFailed(run)
		s.dispatch(now)
		return
	}
	run.mapsDone++
	run.doneMapIDs = append(run.doneMapIDs, taskID)
	s.touch(kMap, run)
	if run.mapsDone == run.pl.mapTasks {
		run.lastMapDone = now
		run.shuffling = true
		s.obsv.trace.Span(s.obsv.track, run.job.ID, "map", run.firstMapAt, now)
		s.eng.After(run.pl.shuffle, run.shuffleFn)
	}
	s.dispatch(now)
}

//simlint:hotpath
func (s *Simulator) startReduceTask(run *jobRun, now time.Duration) {
	s.accrue(now)
	s.freeRed--
	taskID := run.popTask(kRed)
	run.runningReds++
	s.obsv.redsStarted.Inc()
	s.touch(kRed, run)
	s.armAttempt(run, taskID, false, s.jitterDuration(run.pl.redTask), now)
}

// redTaskDone is a reduce attempt's completion, mirroring mapTaskDone; the
// last reduce completes the job.
//
//simlint:hotpath
func (s *Simulator) redTaskDone(run *jobRun, taskID int, now time.Duration) {
	s.accrue(now)
	s.freeRed++
	run.runningReds--
	if s.attemptFails() && !run.failed {
		if s.recordFailure(run, taskID) {
			run.pushTask(kRed, taskID)
			run.retries++
			s.traceRetry(run, taskID, false, now, "failed")
			s.touch(kRed, run)
			s.dispatch(now)
			return
		}
		s.failJob(run, now, "reduce")
		s.dispatch(now)
		return
	}
	if run.failed {
		s.touch(kRed, run)
		s.retireFailed(run)
		s.dispatch(now)
		return
	}
	run.redsDone++
	s.touch(kRed, run)
	if run.redsDone == run.pl.reducers {
		s.completeJob(run, now)
	}
	s.dispatch(now)
}

// recordFailure counts one failed attempt of a task and reports whether the
// task may retry.
func (s *Simulator) recordFailure(run *jobRun, taskID int) bool {
	if run.attempts == nil {
		run.attempts = make(map[int]int)
	}
	run.attempts[taskID]++
	if s.inv.checker != nil && run.attempts[taskID] > s.platform.Cal.MaxTaskAttempts {
		s.inv.checker.Violate("task-attempts", "%s: job %s task %d reached %d failed attempts, budget %d",
			s.platform.Name, run.job.ID, taskID, run.attempts[taskID], s.platform.Cal.MaxTaskAttempts)
	}
	return run.attempts[taskID] < s.platform.Cal.MaxTaskAttempts
}

// failJob marks the job failed; its remaining tasks are dropped and the
// result carries the error, like a JobTracker-reported task failure.
func (s *Simulator) failJob(run *jobRun, now time.Duration, phase string) {
	if run.failed {
		return
	}
	run.failed = true
	s.queuedMaps -= run.pendingLen(kMap)
	run.initMaps, run.initReds = 0, 0
	run.reqMaps = run.reqMaps[:0]
	run.reqReds = run.reqReds[:0]
	s.traceJobFailed(run, now, phase)
	s.touch(kMap, run)
	s.touch(kRed, run)
	s.removeActive(run)
	s.finish(Result{
		Job:      run.job,
		Platform: s.platform.Name,
		Submit:   run.submit,
		Start:    run.start,
		End:      now,
		Exec:     now - run.submit,
		Err:      fmt.Errorf("mapreduce: job %s: %s task exceeded %d attempts", run.job.ID, phase, s.platform.Cal.MaxTaskAttempts),
	}, now)
	s.retireFailed(run)
}

//simlint:hotpath
func (s *Simulator) completeJob(run *jobRun, end time.Duration) {
	if s.inv.checker != nil {
		s.invComplete(run, end)
	}
	s.traceJobDone(run, end)
	s.touch(kMap, run)
	s.touch(kRed, run)
	s.removeActive(run)
	s.finish(Result{
		Job:             run.job,
		Platform:        s.platform.Name,
		Submit:          run.submit,
		Start:           run.start,
		End:             end,
		Exec:            end - run.submit,
		MapPhase:        run.lastMapDone - run.firstMapAt,
		ShufflePhase:    run.shuffleDone - run.lastMapDone,
		ReducePhase:     end - run.shuffleDone,
		MapTasks:        run.pl.mapTasks,
		MapWaves:        run.pl.mapWaves,
		Reducers:        run.pl.reducers,
		Spilled:         run.pl.spilled,
		ShuffleDegraded: run.pl.degraded,
		TaskRetries:     run.retries,
	}, end)
	s.recycleJob(run)
}

//simlint:hotpath
func (s *Simulator) finish(r Result, now time.Duration) {
	s.running--
	if s.inv.checker != nil {
		s.invFinish(r, now)
	}
	if s.onResult != nil {
		s.onResult(r, now)
		return
	}
	s.results = append(s.results, r)
}
