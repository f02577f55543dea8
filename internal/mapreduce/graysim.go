package mapreduce

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"hybridmr/internal/faults"
	"hybridmr/internal/storage"
)

// This file threads the gray-failure layer (internal/faults degradation
// windows) through the event simulator. Unlike a crash, a gray failure takes
// no capacity: the machines keep their slots but run slower.
//
// The model splits the four degradation streams by the level they act at:
//
//   - cpu and disk windows stretch task attempts. A window covering k of the
//     avail live machines with factor f slows the cluster's attempts by the
//     uniform weight (avail-k+k·f)/avail — the simulator does not place
//     attempts on machines, so the per-machine slowdown is spread across the
//     pool. In-flight attempts rescale their remaining work at every window
//     transition; attempts started inside a window are stretched at arming.
//   - nic and rack windows change how new jobs are planned: the planning
//     view's fabric is throttled (per-node NIC bandwidth, bisection) and a
//     throttleable file system's server links share the NIC throttle.
//     Attempts already in flight keep their planned durations, matching the
//     storage-loss simplification documented in faultsim.go.
//
// Speculative cloning is the scheduler's response: when a slowdown window
// opens and pushes the cluster past the configured threshold, in-flight
// attempts get a backup clone on a free slot at the healthy (jitter-free)
// planned speed — modelling placement away from the gray machines. The first
// finisher wins and the loser is killed, Hadoop-speculation style.
//
// Two documented simplifications: a window's weight is fixed when it opens
// (a crash changing the live-machine count mid-window does not re-weight
// it), and shuffle/setup spans are not stretched — cpu/disk windows act on
// task attempts only.

// graySlow is the current attempt-level stretch factor (1 = clean).
//
//simlint:hotpath
func (s *Simulator) graySlow() float64 { return s.cpuSlow * s.diskSlow }

// GraySlowdown reports the current attempt-level gray stretch factor: 1 when
// no cpu/disk window is open. The failure-aware scheduler scales its ETA
// probes by it.
func (s *Simulator) GraySlowdown() float64 { return s.graySlow() }

// GrayActive reports whether any gray window — attempt-level or
// planning-level — is currently open.
func (s *Simulator) GrayActive() bool {
	return s.graySlow() != 1 || s.nicSlow != 1 || s.rackSlow != 1
}

// SpeculateClones enables speculative clone attempts: whenever a gray window
// opens and the cluster's attempt slowdown reaches threshold, in-flight
// attempts are cloned onto free slots at healthy speed, first finisher wins.
// A threshold of 0 disables cloning; otherwise it must exceed 1 (a clone
// against an unslowed original can never win). Call before Run.
func (s *Simulator) SpeculateClones(threshold float64) error {
	if threshold != 0 && threshold <= 1 {
		return fmt.Errorf("mapreduce: clone threshold %v must be 0 (off) or > 1", threshold)
	}
	s.cloneThreshold = threshold
	return nil
}

// SpeculationStats reports how many clone attempts were started and how many
// finished before their original.
func (s *Simulator) SpeculationStats() (started, won int) {
	return s.clonesStarted, s.clonesWon
}

// grayWeight spreads a window covering count machines at the given factor
// uniformly across the live pool. count 0 (or more than are live) covers
// every machine.
func (s *Simulator) grayWeight(count int, factor float64) float64 {
	avail := s.platform.Spec.Machines - s.machinesDown
	if avail <= 0 {
		return factor // unreachable: crash validation keeps ≥1 machine live
	}
	k := count
	if k <= 0 || k > avail {
		k = avail
	}
	return (float64(avail-k) + float64(k)*factor) / float64(avail)
}

// applyGray transitions one gray window edge at its instant.
func (s *Simulator) applyGray(ev faults.Event, now time.Duration) {
	switch ev.Kind {
	case faults.NICThrottle:
		s.nicSlow = ev.Factor
	case faults.NICOk:
		s.nicSlow = 1
	case faults.RackPartition:
		s.rackSlow = ev.Factor
	case faults.RackHeal:
		s.rackSlow = 1
	case faults.CPUSlow, faults.CPUOk, faults.DiskSlow, faults.DiskOk:
		old := s.graySlow()
		w := 1.0
		if !ev.Kind.IsRecovery() {
			w = s.grayWeight(ev.Count, ev.Factor)
		}
		if ev.Kind == faults.CPUSlow || ev.Kind == faults.CPUOk {
			s.cpuSlow = w
		} else {
			s.diskSlow = w
		}
		s.rescaleAttempts(old, s.graySlow(), now)
		if !ev.Kind.IsRecovery() {
			s.speculateClones(now)
		}
	}
	if s.obsv.trace.Enabled() {
		s.traceFault("gray-"+ev.Kind.String(), now,
			"slowdown ×"+strconv.FormatFloat(s.graySlow(), 'g', 4, 64)+
				", nic ×"+strconv.FormatFloat(s.nicSlow, 'g', 4, 64)+
				", rack ×"+strconv.FormatFloat(s.rackSlow, 'g', 4, 64))
	}
}

// rescaleAttempts re-times every in-flight attempt's completion for a new
// slowdown: the remaining interval is rescaled by newSlow relative to the
// slowdown it was computed under. Moving earlier arms an extra timer (the
// old one drains as stale); moving later just records the new instant — the
// pending timer re-arms when it fires early. Clones are exempt: they model
// placement on machines outside the gray set.
func (s *Simulator) rescaleAttempts(oldSlow, newSlow float64, now time.Duration) {
	if newSlow == oldSlow {
		return
	}
	for _, att := range s.inflight {
		if att.isClone {
			continue
		}
		remaining := att.fireAt - now
		if remaining <= 0 {
			continue // completing at this very instant; let it fire
		}
		stretched := time.Duration(float64(remaining) * newSlow / att.slow)
		att.slow = newSlow
		at := now + stretched
		if at < att.fireAt {
			att.fireAt = at
			att.timers++
			s.eng.At(at, att.fireFn)
		} else {
			att.fireAt = at
		}
	}
}

// speculateClones runs the clone pass at a window-open instant: the oldest
// unpartnered attempts (longest delayed, deterministic by attempt.seq) get a
// healthy-speed backup on a free slot, but only where that backup would
// actually beat the stretched original.
func (s *Simulator) speculateClones(now time.Duration) {
	if s.cloneThreshold <= 0 || s.graySlow() < s.cloneThreshold {
		return
	}
	cands := make([]*attempt, 0, len(s.inflight))
	for _, att := range s.inflight {
		if !att.isClone && att.partner == nil && !att.run.failed {
			cands = append(cands, att)
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].seq < cands[j].seq })
	for _, att := range cands {
		if att.isMap && s.freeMap <= 0 {
			continue
		}
		if !att.isMap && s.freeRed <= 0 {
			continue
		}
		d := att.run.pl.redTask
		if att.isMap {
			d = att.run.pl.mapTask
		}
		if now+d >= att.fireAt {
			continue // the original finishes first anyway; keep the slot
		}
		s.startClone(att, d, now)
	}
}

// startClone launches the speculative backup of orig: a full attempt on a
// free slot, jitter-free at healthy speed.
func (s *Simulator) startClone(orig *attempt, d, now time.Duration) {
	s.accrue(now)
	run := orig.run
	if orig.isMap {
		s.freeMap--
		run.runningMaps++
		s.obsv.mapsStarted.Inc()
		s.touch(kMap, run)
	} else {
		s.freeRed--
		run.runningReds++
		s.obsv.redsStarted.Inc()
		s.touch(kRed, run)
	}
	c := s.addAttempt(run, orig.taskID, orig.isMap)
	c.isClone = true
	c.partner, orig.partner = orig, c
	c.slow = 1
	c.fireAt = now + d
	c.timers = 1
	s.eng.At(c.fireAt, c.fireFn)
	s.clonesStarted++
	if s.obsv.trace.Enabled() {
		s.obsv.trace.Instant(s.obsv.track, run.job.ID, "speculate", now,
			"clone of task "+strconv.Itoa(orig.taskID))
	}
	s.noteSlots()
}

// loseSpeculation kills the winner's partner: the losing attempt's slot
// frees, its pending timer drains as stale, and the task is NOT re-queued —
// the winner's completion carries it.
func (s *Simulator) loseSpeculation(winner *attempt, now time.Duration) {
	loser := winner.partner
	winner.partner, loser.partner = nil, nil
	loser.killed = true
	s.removeAttempt(loser)
	s.accrue(now)
	run := loser.run
	if loser.isMap {
		s.freeMap++
		run.runningMaps--
		s.touch(kMap, run)
	} else {
		s.freeRed++
		run.runningReds--
		s.touch(kRed, run)
	}
	if winner.isClone {
		s.clonesWon++
	}
	if s.obsv.trace.Enabled() {
		side := "original"
		if winner.isClone {
			side = "clone"
		}
		s.obsv.trace.Instant(s.obsv.track, run.job.ID, "speculation-won", now,
			side+" won task "+strconv.Itoa(loser.taskID))
	}
}

// Throttled returns the gray planning view of the platform: NIC and
// bisection bandwidth divided by the given factors, as a persistent gray
// network degradation would leave them. Factors of 1 return the platform
// unchanged. The crosspoint CLI uses this to show how gray failures shift
// Algorithm 1's scale-up/scale-out crossover sizes.
func (p *Platform) Throttled(nic, rack float64) (*Platform, error) {
	if nic == 1 && rack == 1 {
		return p, nil
	}
	return grayView(p, nic, rack)
}

// grayView applies the planning-level network degradation to a platform
// view: the cluster fabric is throttled (per-node NIC) and partitioned
// (bisection), and a throttleable file system's server links share the NIC
// throttle. Local disk bandwidth is untouched — disk slowdowns act at the
// attempt level. The view carries a distinct name so cache keys never alias
// the clean view.
func grayView(p *Platform, nic, rack float64) (*Platform, error) {
	spec, err := p.Spec.Throttle(nic, rack)
	if err != nil {
		return nil, err
	}
	fs := p.FS
	if nic != 1 {
		if t, ok := p.FS.(storage.Throttleable); ok {
			fs, err = t.Throttle(1, nic)
			if err != nil {
				return nil, err
			}
		}
	}
	name := p.Name + "[gray"
	if nic != 1 {
		name += fmt.Sprintf(" nic÷%g", nic)
	}
	if rack != 1 {
		name += fmt.Sprintf(" bis÷%g", rack)
	}
	name += "]"
	return NewPlatform(name, spec, fs, p.Cal)
}
