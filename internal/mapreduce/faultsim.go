package mapreduce

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"hybridmr/internal/faults"
	"hybridmr/internal/simclock"
)

// This file threads the fault-schedule layer (internal/faults) through the
// event simulator: machine crashes shrink the slot pools mid-run and kill
// the crashed machines' tasks, recoveries grow them back, and storage-server
// losses swap the platform jobs are planned against for a degraded view.
//
// Crash semantics follow Hadoop 1.x tasktracker loss: the JobTracker
// re-executes a lost node's in-flight tasks AND its completed map tasks,
// because map output lives on the tasktracker's local disk and is gone with
// the machine. Completed reduce output lives in the distributed file system
// and survives. Two documented simplifications: jobs already past their map
// phase (shuffle tail scheduled) keep their outputs — the copy phase has
// fetched them; and a job's task durations are fixed by the degradation
// level at its submission instant, so capacity loss mid-job shows up as
// narrower waves, not re-planned task times.

// attempt tracks one in-flight batch of task attempts so a machine crash can
// kill them: the slots die with the machine and the completions must not
// fire. A batch is n consecutive tasks of one job and kind that complete at
// one instant — task IDs taskID, taskID-1, …, taskID-n+1, the order popTask
// issued them — driven by one engine timer (armAttempt); most records are
// batches of one. idx is the record's position in Simulator.inflight
// (swap-remove back-pointer); seq is the global start order of its first
// member (member i started as seq+i), which killAttempts uses to select the
// newest attempts deterministically now that swap-remove no longer keeps the
// slice chronologically ordered. armed counts the members the timer was
// armed for: a crash kill shrinks n, and the killed members still count as
// executed events when the timer fires, as their own timers would have.
// fireFn is the bound fire method, created once per attempt object and
// reused across recycles, so a task start schedules its completion without
// allocating a closure.
//
// Attempts are pooled through Simulator.attemptFree; addAttempt must
// re-initialize every field when it hands a recycled record out.
//
//simlint:exhaustive addAttempt
type attempt struct {
	sim    *Simulator
	run    *jobRun
	taskID int
	n      int
	armed  int
	isMap  bool
	killed bool
	seq    uint64
	idx    int
	fireFn simclock.Event

	// Gray-degradation state (graysim.go). fireAt is the attempt's current
	// completion instant — a slowdown window opening or closing rescales it
	// by the remaining work; timers counts the engine timers referencing
	// this attempt (a rescale to an earlier instant arms an extra one, and
	// the attempt recycles only when the last timer has fired); done marks
	// a completed attempt whose stale timers are still draining; slow is
	// the slowdown the current fireAt was computed under; partner links a
	// speculative clone with its original (first finisher wins, the loser
	// is killed); isClone marks the speculative copy. A simulator that can
	// see a cpu or disk window arms only batches of one, so everything in
	// this group acts on single attempts.
	fireAt  time.Duration
	timers  int
	done    bool
	slow    float64
	partner *attempt
	isClone bool
}

// fire is the attempt's completion event. A killed or superseded attempt
// only drains its stale timers here; a live attempt whose completion moved
// later (a slowdown window opened) re-arms; otherwise the attempt completes,
// kills its speculation partner if it still runs, and dispatches each live
// member's completion in start order. Every member after the first counts
// as one more engine event (Tick) — as do the crash-killed members after
// the live ones — exactly where its own timer would have fired. The record
// recycles when its last timer has fired and its members have run — that
// callback is the last reader.
//
//simlint:hotpath
func (att *attempt) fire(now time.Duration) {
	s := att.sim
	att.timers--
	if att.killed || att.done {
		if att.timers == 0 {
			for i := 1; i < att.armed; i++ {
				s.eng.Tick()
			}
			s.recycleAttempt(att)
		}
		return
	}
	if now < att.fireAt {
		// Stale early timer: the attempt was stretched past this instant.
		if att.timers == 0 {
			att.timers++
			s.eng.At(att.fireAt, att.fireFn)
		}
		return
	}
	att.done = true
	s.removeAttempt(att)
	if s.batch == att {
		s.batch = nil
	}
	if att.partner != nil {
		s.loseSpeculation(att, now)
	}
	run, taskID, isMap := att.run, att.taskID, att.isMap
	for i := 0; i < att.n; i++ {
		if i > 0 {
			s.eng.Tick()
		}
		if isMap {
			s.mapTaskDone(run, taskID-i, now)
		} else {
			s.redTaskDone(run, taskID-i, now)
		}
	}
	for i := att.n; i < att.armed; i++ {
		s.eng.Tick()
	}
	if att.timers == 0 {
		s.recycleAttempt(att)
	}
}

// addAttempt registers a starting attempt record in the in-flight index,
// reusing a recycled attempt when one is free so steady-state task traffic
// does not allocate per attempt.
//
//simlint:hotpath
func (s *Simulator) addAttempt(run *jobRun, taskID int, isMap bool) *attempt {
	var att *attempt
	if n := len(s.attemptFree); n > 0 {
		att = s.attemptFree[n-1]
		s.attemptFree[n-1] = nil
		s.attemptFree = s.attemptFree[:n-1]
	} else {
		att = &attempt{} //simlint:allow hotalloc freelist miss: allocates only until the attempt pool reaches the workload's high-water mark
		att.fireFn = att.fire
	}
	s.attemptSeq++
	att.sim, att.run, att.taskID, att.isMap, att.killed = s, run, taskID, isMap, false
	att.n, att.armed = 1, 1
	att.fireAt, att.timers, att.done, att.slow, att.partner, att.isClone = 0, 0, false, 1, nil, false
	att.seq, att.idx = s.attemptSeq, len(s.inflight)
	s.inflight = append(s.inflight, att)
	return att
}

// armAttempt starts task taskID of run: it completes d from now, stretched
// by the current gray slowdown. The task joins the open batch — the record
// the simulator's previous task start armed — when it is the batch's next
// member: same run and kind, same completion instant and slowdown, the
// next task ID down, and no event scheduled on the engine since the
// batch's timer. It would then have been the next (at, seq) timer after
// the batch's last member, so nothing can run between them and the batch
// fires it in place. Otherwise it gets its own record and timer, which
// opens a new batch unless the simulator arms only batches of one.
//
//simlint:hotpath
func (s *Simulator) armAttempt(run *jobRun, taskID int, isMap bool, d, now time.Duration) {
	slow := s.graySlow()
	if slow != 1 {
		d = time.Duration(float64(d) * slow)
	}
	at := now + d
	if b := s.batch; b != nil && b.run == run && b.isMap == isMap && b.fireAt == at &&
		b.slow == slow && taskID == b.taskID-b.n && s.eng.Seq() == s.batchSeq {
		b.n++
		b.armed++
		s.attemptSeq++
		return
	}
	att := s.addAttempt(run, taskID, isMap)
	att.slow = slow
	att.fireAt = at
	att.timers = 1
	s.eng.At(at, att.fireFn)
	if !s.single && !forceSingleAttempts {
		s.batch, s.batchSeq = att, s.eng.Seq()
	}
}

// forceSingleAttempts, when set, makes every simulator arm only batches of
// one — the unbatched replay the batching equivalence tests compare
// against. Tests only; set it before any replay starts.
var forceSingleAttempts bool

// removeAttempt drops a finished attempt from the in-flight index in O(1)
// via its back-pointer (the former implementation scanned the whole list on
// every task completion).
//
//simlint:hotpath
func (s *Simulator) removeAttempt(att *attempt) {
	i := att.idx
	last := len(s.inflight) - 1
	s.inflight[i] = s.inflight[last]
	s.inflight[i].idx = i
	s.inflight[last] = nil
	s.inflight = s.inflight[:last]
	att.idx = -1
}

// recycleAttempt returns an attempt to the freelist. Only the attempt's own
// completion callback may call it — after removeAttempt on a normal finish,
// or on observing killed — because that callback is the last reader.
//
//simlint:hotpath
func (s *Simulator) recycleAttempt(att *attempt) {
	s.attemptFree = append(s.attemptFree, att)
}

// ScheduleFaults validates a fault timeline against this platform and
// schedules its events on the engine. Storage events that do not match the
// platform's file system (OFS events on an HDFS platform and vice versa) are
// skipped — the hybrid's halves share one schedule but mount different file
// systems. The events must be time-ordered (faults.Schedule guarantees it);
// a timeline that would ever leave the cluster with no machine, exceed what
// the file system can survive, or recover capacity that never failed is
// rejected up front. Call before Submit, so fault events at an instant
// precede job arrivals at the same instant.
func (s *Simulator) ScheduleFaults(events []faults.Event) error {
	fsName := s.platform.FS.Name()
	relevant := make([]faults.Event, 0, len(events))
	for _, ev := range events {
		if err := ev.Validate(); err != nil {
			return err
		}
		switch ev.Kind {
		case faults.OFSServerDown, faults.OFSServerUp:
			if fsName != "OFS" {
				continue
			}
		case faults.DatanodeDown, faults.DatanodeUp:
			if fsName != "HDFS" {
				continue
			}
		}
		relevant = append(relevant, ev)
	}
	// Dry-run the whole walk before touching the engine, so a bad timeline
	// is an error at schedule time, never a panic mid-simulation.
	downM, downS := 0, 0
	var last time.Duration
	for _, ev := range relevant {
		if ev.At < last {
			return fmt.Errorf("mapreduce: %s: fault events out of order at %v", s.platform.Name, ev.At)
		}
		last = ev.At
		switch ev.Kind {
		case faults.MachineCrash:
			downM += ev.Count
			if downM >= s.platform.Spec.Machines {
				return fmt.Errorf("mapreduce: %s: fault schedule leaves no machines at %v (%d of %d down)",
					s.platform.Name, ev.At, downM, s.platform.Spec.Machines)
			}
		case faults.MachineRecover:
			downM -= ev.Count
			if downM < 0 {
				return fmt.Errorf("mapreduce: %s: machine recovery at %v without a matching crash", s.platform.Name, ev.At)
			}
		case faults.NICThrottle, faults.RackPartition:
			// The planning view under the throttle must be constructible
			// (and is memoized here for the live run).
			nic, rack := 1.0, ev.Factor
			if ev.Kind == faults.NICThrottle {
				nic, rack = ev.Factor, 1.0
			}
			if _, err := s.degradedPlatform(0, downS, nic, rack); err != nil {
				return fmt.Errorf("mapreduce: %s: fault schedule at %v: %w", s.platform.Name, ev.At, err)
			}
		default:
			if ev.Kind.IsGray() {
				// cpu/disk slowdowns and the nic/rack closers: weighted
				// attempt stretching cannot fail, and the window structure
				// was already checked by faults.Schedule.
				continue
			}
			if ev.Kind.IsRecovery() {
				downS -= ev.Count
				if downS < 0 {
					return fmt.Errorf("mapreduce: %s: storage recovery at %v without a matching loss", s.platform.Name, ev.At)
				}
			} else {
				downS += ev.Count
			}
			if _, err := s.degradedPlatform(0, downS, 1, 1); err != nil {
				return fmt.Errorf("mapreduce: %s: fault schedule at %v: %w", s.platform.Name, ev.At, err)
			}
		}
	}
	for _, ev := range relevant {
		ev := ev
		s.eng.At(ev.At, func(now time.Duration) { s.applyFault(ev, now) })
		if ev.Kind == faults.CPUSlow || ev.Kind == faults.DiskSlow {
			// rescaleAttempts re-times attempts one by one in inflight
			// order, which batching does not preserve.
			s.single = true
		}
	}
	return nil
}

// applyFault transitions the cluster's health state at an event instant.
func (s *Simulator) applyFault(ev faults.Event, now time.Duration) {
	switch ev.Kind {
	case faults.MachineCrash:
		s.crashMachines(ev.Count, now)
	case faults.MachineRecover:
		s.recoverMachines(ev.Count, now)
	default:
		if ev.Kind.IsGray() {
			s.applyGray(ev, now)
			return
		}
		// Storage loss changes how future jobs are planned; I/O already
		// in flight keeps its planned duration (see file comment).
		if ev.Kind.IsRecovery() {
			s.storageDown -= ev.Count
			if s.obsv.trace.Enabled() {
				s.traceFault("storage-up", now,
					strconv.Itoa(ev.Count)+" back, "+strconv.Itoa(s.storageDown)+" still down")
			}
		} else {
			s.storageDown += ev.Count
			if s.obsv.trace.Enabled() {
				s.traceFault("storage-down", now,
					strconv.Itoa(ev.Count)+" lost, "+strconv.Itoa(s.storageDown)+" down")
			}
		}
	}
}

// ceilDiv returns ceil(a/b) for positive b.
func ceilDiv(a, b int) int { return (a + b - 1) / b }

// crashMachines takes k machines offline: their slots leave the pools, the
// attempts running on them die (re-queued per task), and — Hadoop 1.x
// tasktracker-loss semantics — the completed map outputs they held are lost
// and re-executed. Which attempts sat on the crashed machines is not modeled
// per-node; the busy share is prorated (ceiling) and the newest attempts die
// first, which is deterministic and biases against speculative progress.
func (s *Simulator) crashMachines(k int, now time.Duration) {
	s.accrue(now)
	spec := s.platform.Spec
	avail := spec.Machines - s.machinesDown
	mps, rps := spec.MapSlotsPerMachine(), spec.ReduceSlotsPerMachine()

	killedMaps := s.killAttempts(true, ceilDiv((s.capMap-s.freeMap)*k, avail), now)
	killedReds := s.killAttempts(false, ceilDiv((s.capRed-s.freeRed)*k, avail), now)
	// The crashed machines' free slots vanish too. killed ≤ ceil(busy·k/avail)
	// guarantees the remainder never exceeds the free pool.
	s.capMap -= k * mps
	s.capRed -= k * rps
	s.freeMap -= k*mps - killedMaps
	s.freeRed -= k*rps - killedReds
	lostMaps := s.loseCompletedMaps(k, avail)
	s.machinesDown += k
	if s.obsv.trace.Enabled() {
		s.traceFault("machines-crash", now,
			strconv.Itoa(k)+" crashed ("+strconv.Itoa(s.machinesDown)+" down), killed "+
				strconv.Itoa(killedMaps)+" maps + "+strconv.Itoa(killedReds)+" reduces, lost "+
				strconv.Itoa(lostMaps)+" map outputs")
	}
	if s.inv.checker != nil {
		s.invSlots()
	}
	s.dispatch(now)
}

// killAttempts kills up to n in-flight attempts of one kind, newest first,
// re-queuing each task on its job, and returns how many died. Newest-first
// is by attempt start order (member i of a batch started as attempt.seq+i):
// the same selection the pre-indexed implementation made by walking the
// chronologically ordered in-flight slice from the back, so faulted replays
// are byte-identical. A batch's members are consecutive in that order, so
// the selection takes a suffix of each batch: a partly killed batch shrinks
// its live count and fires the rest, a fully killed one is marked killed.
func (s *Simulator) killAttempts(isMap bool, n int, now time.Duration) int {
	if n <= 0 {
		return 0
	}
	// A crash ends the open batch: a re-queued task must not rejoin it.
	s.batch = nil
	type victim struct {
		att *attempt
		i   int // member index
	}
	victims := make([]victim, 0, n)
	for _, att := range s.inflight {
		if att.isMap == isMap {
			for i := 0; i < att.n; i++ {
				victims = append(victims, victim{att, i})
			}
		}
	}
	sort.Slice(victims, func(i, j int) bool {
		return victims[i].att.seq+uint64(victims[i].i) > victims[j].att.seq+uint64(victims[j].i)
	})
	if n < len(victims) {
		victims = victims[:n]
	}
	for _, v := range victims {
		att, taskID := v.att, v.att.taskID-v.i
		att.n = v.i
		if v.i == 0 {
			att.killed = true
			s.removeAttempt(att)
		}
		// A speculation pair losing one side keeps the survivor on the
		// task, so the kill must not re-queue it; if both die in the same
		// crash, the first death unpairs and the second re-queues.
		paired := att.partner != nil
		if paired {
			att.partner.partner, att.partner = nil, nil
		}
		run := att.run
		if isMap {
			run.runningMaps--
			if !run.failed && !paired {
				// A crash kill is Hadoop's KILLED, not FAILED: it
				// does not count against the task's max attempts.
				run.pushTask(kMap, taskID)
				s.queuedMaps++
				run.retries++
				s.traceRetry(run, taskID, true, now, "killed")
			}
			s.touch(kMap, run)
		} else {
			run.runningReds--
			if !run.failed && !paired {
				run.pushTask(kRed, taskID)
				run.retries++
				s.traceRetry(run, taskID, false, now, "killed")
			}
			s.touch(kRed, run)
		}
		// A failed job's run recycles with its last drained attempt; any
		// co-victims of the same run in this batch still hold a running
		// count each, so the recycle happens on the batch's last one.
		s.retireFailed(run)
	}
	return len(victims)
}

// loseCompletedMaps re-queues the prorated share of each map-phase job's
// completed maps — their outputs lived on the crashed machines' local disks —
// and returns how many were lost in total.
func (s *Simulator) loseCompletedMaps(k, avail int) int {
	total := 0
	for _, run := range s.active {
		if run.failed || run.mapsDone == 0 || run.mapsDone == run.pl.mapTasks {
			continue // nothing done yet, or already past the map phase
		}
		lost := ceilDiv(run.mapsDone*k, avail)
		if lost > len(run.doneMapIDs) {
			lost = len(run.doneMapIDs)
		}
		if silentMapLossBug {
			// Deliberate defect (invariants.go): drop the outputs from the
			// ledger but forget to re-queue them — the job's bookkeeping
			// still counts the maps done. The chaos engine's invariant layer
			// must catch this as map-output-ledger.
			run.doneMapIDs = run.doneMapIDs[:len(run.doneMapIDs)-lost]
			continue
		}
		for i := 0; i < lost; i++ {
			id := run.doneMapIDs[len(run.doneMapIDs)-1]
			run.doneMapIDs = run.doneMapIDs[:len(run.doneMapIDs)-1]
			run.pushTask(kMap, id)
		}
		s.queuedMaps += lost
		run.mapsDone -= lost
		run.retries += lost
		total += lost
		s.obsv.taskRetries.Add(int64(lost))
		s.touch(kMap, run)
	}
	return total
}

// recoverMachines brings k machines back; their slots rejoin the pools empty.
func (s *Simulator) recoverMachines(k int, now time.Duration) {
	s.accrue(now)
	spec := s.platform.Spec
	s.machinesDown -= k
	if s.obsv.trace.Enabled() {
		s.traceFault("machines-recover", now,
			strconv.Itoa(k)+" back, "+strconv.Itoa(s.machinesDown)+" still down")
	}
	s.capMap += k * spec.MapSlotsPerMachine()
	s.capRed += k * spec.ReduceSlotsPerMachine()
	s.freeMap += k * spec.MapSlotsPerMachine()
	s.freeRed += k * spec.ReduceSlotsPerMachine()
	if s.inv.checker != nil {
		s.invSlots()
	}
	s.dispatch(now)
}

// degradeKey identifies one memoized platform view: the binary loss level
// plus the gray planning factors active when it was built.
type degradeKey struct {
	machines, storage int
	nic, rack         float64
}

// degradedPlatform returns the platform view with the given losses and gray
// network factors applied, memoized per level — fault timelines revisit the
// same few levels, and planning against a view must not rebuild it every job.
func (s *Simulator) degradedPlatform(machinesDown, storageDown int, nic, rack float64) (*Platform, error) {
	if machinesDown == 0 && storageDown == 0 && nic == 1 && rack == 1 {
		return s.platform, nil
	}
	key := degradeKey{machinesDown, storageDown, nic, rack}
	if p, ok := s.degraded[key]; ok {
		return p, nil
	}
	p, err := s.platform.Degraded(machinesDown, storageDown)
	if err != nil {
		return nil, err
	}
	if nic != 1 || rack != 1 {
		p, err = grayView(p, nic, rack)
		if err != nil {
			return nil, err
		}
	}
	if s.degraded == nil {
		s.degraded = make(map[degradeKey]*Platform)
	}
	s.degraded[key] = p
	return p, nil
}

// PlatformNow returns the platform as currently degraded: the healthy
// platform when everything is up, otherwise a view with the lost machines
// and storage servers removed and any gray network throttles applied. The
// failure-aware scheduler estimates ETAs against it.
func (s *Simulator) PlatformNow() (*Platform, error) {
	return s.degradedPlatform(s.machinesDown, s.storageDown, s.nicSlow, s.rackSlow)
}

// MachinesDown reports how many of the cluster's machines are currently
// crashed.
func (s *Simulator) MachinesDown() int { return s.machinesDown }

// StorageDown reports how many storage servers (OFS) or datanodes (HDFS) are
// currently lost.
func (s *Simulator) StorageDown() int { return s.storageDown }

// SetResultHook diverts every finished job's result to fn (with the
// completion instant) instead of the internal results list. The replay
// drivers in core use it to write each result at its job's trace index, and
// the hybrid's failure-aware scheduler to retry failed jobs in simulated
// time. Call before Run. With a hook set, Results returns nothing.
func (s *Simulator) SetResultHook(fn func(Result, time.Duration)) { s.onResult = fn }
