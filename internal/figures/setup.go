package figures

import (
	"math"
	"sync"

	"hybridmr/internal/apps"
	"hybridmr/internal/core"
	"hybridmr/internal/mapreduce"
	"hybridmr/internal/workload"
)

// This file is the shared-prefix layer of the replay experiments: the work
// every replay of a report repeats — generating the trace, assembling the
// hybrid and the two baseline platforms — is computed once and memoized, and
// the 3–7 concurrent replays of RunTrace and RunResilienceOpts share the results.
// Everything handed out is read-only after construction (the simulators only
// read jobs and platforms), which is what already made the replays safe to
// fan out on the sweep pool; the memo just stops rebuilding the inputs.

// ReplaySetup is the shared prefix of one trace experiment: the generated
// trace plus the architectures it replays on. Treat every field as
// immutable — the same setup is shared by concurrent replays and by later
// runs with the same calibration and workload config.
type ReplaySetup struct {
	Jobs    []workload.Job
	Hybrid  *core.Hybrid
	THadoop *mapreduce.Platform
	RHadoop *mapreduce.Platform
}

// ArchSet is the architecture bundle for one calibration: the paper's hybrid
// and the two traditional 24-machine baselines. Read-only once built.
type ArchSet struct {
	Hybrid  *core.Hybrid
	THadoop *mapreduce.Platform
	RHadoop *mapreduce.Platform
}

var (
	setupMu sync.Mutex
	arches  map[uint64]*ArchSet
	traces  map[uint64][]workload.Job
)

// SharedArches returns the memoized architecture bundle for the calibration,
// keyed by Calibration.Hash (the same identity the sweep cache trusts).
// Errors are not memoized — an invalid calibration fails every time.
func SharedArches(cal mapreduce.Calibration) (*ArchSet, error) {
	key := cal.Hash()
	setupMu.Lock()
	a, ok := arches[key]
	setupMu.Unlock()
	if ok {
		return a, nil
	}
	hybrid, err := core.NewHybrid(cal)
	if err != nil {
		return nil, err
	}
	th, err := mapreduce.NewTHadoop(cal)
	if err != nil {
		return nil, err
	}
	rh, err := mapreduce.NewRHadoop(cal)
	if err != nil {
		return nil, err
	}
	a = &ArchSet{Hybrid: hybrid, THadoop: th, RHadoop: rh}
	setupMu.Lock()
	if prev, ok := arches[key]; ok {
		a = prev // a concurrent builder won; share its bundle
	} else {
		if arches == nil {
			arches = make(map[uint64]*ArchSet)
		}
		arches[key] = a
	}
	setupMu.Unlock()
	return a, nil
}

// sharedTrace returns the memoized generated trace for the workload config,
// keyed by a fingerprint over every Config field. The slice is shared —
// callers must not mutate it.
func sharedTrace(cfg workload.Config) ([]workload.Job, error) {
	key := configFP(cfg)
	setupMu.Lock()
	jobs, ok := traces[key]
	setupMu.Unlock()
	if ok {
		return jobs, nil
	}
	jobs, err := workload.Generate(cfg)
	if err != nil {
		return nil, err
	}
	setupMu.Lock()
	if prev, ok := traces[key]; ok {
		jobs = prev
	} else {
		if traces == nil {
			traces = make(map[uint64][]workload.Job)
		}
		traces[key] = jobs
	}
	setupMu.Unlock()
	return jobs, nil
}

// SharedSetup returns the memoized shared prefix for (cal, cfg): trace and
// architectures computed once, reused by every later report with the same
// inputs. Generation is deterministic per config, so sharing cannot change
// any replay's output — only skip rebuilding its inputs.
func SharedSetup(cal mapreduce.Calibration, cfg workload.Config) (*ReplaySetup, error) {
	jobs, err := sharedTrace(cfg)
	if err != nil {
		return nil, err
	}
	a, err := SharedArches(cal)
	if err != nil {
		return nil, err
	}
	return &ReplaySetup{Jobs: jobs, Hybrid: a.Hybrid, THadoop: a.THadoop, RHadoop: a.RHadoop}, nil
}

// configFP fingerprints every workload.Config field (FNV-1a), including the
// band mixture and the application mix, so two configs collide only if they
// generate the identical trace.
func configFP(cfg workload.Config) uint64 {
	h := fp(fnvOffset)
	h = h.word(uint64(cfg.Jobs))
	h = h.word(uint64(cfg.Seed))
	h = h.word(uint64(cfg.Duration))
	h = h.word(uint64(len(cfg.Bands)))
	for _, b := range cfg.Bands {
		h = h.float(b.Fraction)
		h = h.word(uint64(b.Lo)).word(uint64(b.Hi))
		h = h.word(uint64(b.TasksLo)).word(uint64(b.TasksHi))
	}
	h = h.float(cfg.Shrink)
	h = h.word(uint64(len(cfg.AppMix)))
	for _, aw := range cfg.AppMix {
		h = h.profile(aw.App)
		h = h.float(aw.Weight)
	}
	h = h.float(cfg.UnknownRatioFraction)
	h = h.float(cfg.BurstFraction)
	h = h.word(uint64(cfg.BurstGap))
	h = h.float(cfg.DiurnalAmplitude)
	return uint64(h)
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fp is a minimal FNV-1a accumulator for configFP.
type fp uint64

func (h fp) word(w uint64) fp {
	for i := 0; i < 8; i++ {
		h = (h ^ fp(byte(w>>(8*i)))) * fnvPrime
	}
	return h
}

func (h fp) float(f float64) fp { return h.word(math.Float64bits(f)) }

func (h fp) flag(b bool) fp {
	if b {
		return h.word(1)
	}
	return h.word(0)
}

func (h fp) str(s string) fp {
	for i := 0; i < len(s); i++ {
		h = (h ^ fp(s[i])) * fnvPrime
	}
	return h.word(uint64(len(s)))
}

func (h fp) profile(p apps.Profile) fp {
	return h.str(p.Name).
		word(uint64(p.Class)).
		float(float64(p.ShuffleInputRatio)).
		float(float64(p.OutputShuffleRatio)).
		flag(p.MapReadsInput).
		float(float64(p.MapFSWriteRatio)).
		float(float64(p.MapRate)).
		float(float64(p.ReduceRate))
}
