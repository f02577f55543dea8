package main

import (
	"fmt"
	"io"
	"time"

	"hybridmr/internal/units"
)

// params sizes a run's inputs. The benchmark runs defaultParams; tests
// shrink them.
type params struct {
	// variants is the number of trace variants a simulator run cycles
	// through, so that one run's figures do not hinge on one trace.
	variants int
	// traceJobs is the fb-day trace length (the paper's day has 6000 jobs);
	// reportJobs the faulted-report trace length.
	traceJobs, reportJobs int
	// grepBytes is the engine-mix corpus; smallBytes its prefix that
	// Wordcount and Sort read.
	grepBytes, smallBytes units.Bytes
	// dfsioFiles × dfsioFileBytes is the DFSIO volume.
	dfsioFiles     int
	dfsioFileBytes units.Bytes
}

func defaultParams() params {
	return params{
		variants:   16,
		traceJobs:  6000,
		reportJobs: 2000,
		grepBytes:  4 * units.MB, smallBytes: 512 * units.KB,
		dfsioFiles: 4, dfsioFileBytes: 1 * units.MB,
	}
}

// suite is one workload with its inputs generated for a run.
type suite interface {
	// variants is how many input variants the ops cycle through.
	variants() int
	// jobsPerOp is the number of MapReduce jobs one op completes.
	jobsPerOp() int
	// run is the timed part of an op on variant v: the calls a user of
	// the program makes. It keeps the outputs for check.
	run(v int, sp *spanLog) error
	// check verifies the outputs of the last run.
	check(v int) error
	// probe makes the traced run's extra calls into single layers.
	probe(v int, sp *spanLog) error
	// layers computes the per-layer metrics of the workload from the
	// traced run.
	layers(sp *spanLog, m map[string]float64)
}

// newSuite generates the workload's inputs for the run seed.
func newSuite(name string, seed int64, p params, sp *spanLog) (suite, error) {
	switch name {
	case fbDayName:
		return newFBDay(seed, p, sp)
	case faultedName:
		return newFaultedReport(seed, p, sp)
	case engineName:
		return newEngineMix(seed, p, sp)
	}
	return nil, fmt.Errorf("unknown workload %q (want %s, %s or %s)", name, fbDayName, faultedName, engineName)
}

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	duration time.Duration
	traced   bool
	p        params
	log      io.Writer // receives op failures
}

// outcome is what one run measured.
type outcome struct {
	attempted, failed int
	setup             time.Duration
	// lat holds the untraced ops' latencies; traced the traced ops'.
	lat, traced []time.Duration
	// rt sums the runtime counters' deltas across the untraced ops.
	rt   rtCounters
	jobs int
	// spans is the traced run's span log; nil when untraced.
	spans  *spanLog
	layers map[string]float64
	log    io.Writer
}

// setUp generates the inputs and runs the first op, which fills the
// replay-state pool, the memoized platforms and the engine's buffers. The
// set-up op is checked and counted as attempted, but not timed as an op.
func setUp(c config, sp *spanLog) (suite, *outcome, error) {
	start := time.Now()
	s, err := newSuite(c.workload, c.seed, c.p, sp)
	if err != nil {
		return nil, nil, err
	}
	o := &outcome{spans: sp, log: c.log}
	err = s.run(0, nil)
	if err == nil {
		err = s.check(0)
	}
	o.setup = time.Since(start)
	o.count(err)
	return s, o, nil
}

// runBench sets up and then runs ops in a closed loop with one client for
// c.duration: each op starts when the previous one ends. A traced run
// alternates an untraced op with a traced one on the same variant, so
// the untraced ops give the runtime counters and the tracing overhead.
func runBench(c config) (*outcome, error) {
	var sp *spanLog
	if c.traced {
		sp = newSpanLog()
	}
	s, o, err := setUp(c, sp)
	if err != nil {
		return nil, err
	}
	rt := newRTReader()
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < c.duration; i++ {
		v := i % s.variants()
		o.op(s, v, nil, rt)
		if sp != nil {
			sp.op = i
			o.op(s, v, sp, rt)
			sp.op = -1
		}
	}
	if sp != nil {
		o.layers = make(map[string]float64)
		s.layers(sp, o.layers)
	}
	return o, nil
}

// op runs, checks and (when traced) probes one op.
func (o *outcome) op(s suite, v int, sp *spanLog, rt *rtReader) {
	var before rtCounters
	if sp == nil {
		before = rt.read()
	}
	root := sp.begin("op")
	t := time.Now()
	err := s.run(v, sp)
	d := time.Since(t)
	sp.end(root)
	if sp == nil {
		o.rt.add(before, rt.read())
		o.lat = append(o.lat, d)
	} else {
		o.traced = append(o.traced, d)
	}
	if err == nil {
		id := sp.begin("bench.check")
		err = s.check(v)
		sp.end(id)
	}
	if err == nil && sp == nil {
		o.jobs += s.jobsPerOp()
	}
	if err == nil && sp != nil {
		err = s.probe(v, sp)
	}
	o.count(err)
}

// count records one attempted op; a failed one is reported, never dropped.
func (o *outcome) count(err error) {
	o.attempted++
	if err == nil {
		return
	}
	o.failed++
	if o.log != nil && o.failed <= 5 {
		fmt.Fprintf(o.log, "perfbench: op %d failed: %v\n", o.attempted, err)
	}
}

// endToEndMetrics computes the untraced run's metrics. setup is the
// median set-up time across the run's set-ups.
func (o *outcome) endToEndMetrics(setup time.Duration, rssMB float64) map[string]float64 {
	lat := ms(o.lat)
	var busy time.Duration
	for _, d := range o.lat {
		busy += d
	}
	return map[string]float64{
		"setup_s":         setup.Seconds(),
		"op_p50_ms":       median(lat),
		"op_p90_ms":       quantile(lat, 0.9),
		"jobs_per_s":      ratio(float64(o.jobs), busy.Seconds()),
		"alloc_mb_per_op": ratio(o.rt.allocBytes(), float64(len(o.lat))) / float64(units.MB),
		"peak_rss_mb":     rssMB,
		"ok_frac":         1 - ratio(float64(o.failed), float64(o.attempted)),
	}
}

// perLayerMetrics completes the traced run's metrics: the workload's own
// layers, the runtime counters of its untraced ops and the tracing
// overhead. Layers the workload bypasses read 0.
func (o *outcome) perLayerMetrics(workload string) (map[string]float64, error) {
	m := make(map[string]float64, len(perLayer))
	for k, v := range o.layers {
		m[k] = v
	}
	n := float64(len(o.lat))
	m["runtime.gc_cpu_frac"] = o.rt.gcCPUFrac()
	m["runtime.allocs_per_op"] = ratio(o.rt.allocObjects(), n)
	m["runtime.gc_cycles_per_op"] = ratio(o.rt.gcCycles(), n)
	m["trace.overhead_pct"] = pctOver(median(ms(o.traced)), median(ms(o.lat)))
	for _, d := range perLayer {
		_, ok := m[d.name]
		switch {
		case d.measures(workload) && !ok:
			return nil, fmt.Errorf("%s did not measure %s", workload, d.name)
		case !d.measures(workload) && ok:
			return nil, fmt.Errorf("%s measured %s, which is not one of its layers", workload, d.name)
		case !ok:
			m[d.name] = 0
		}
	}
	if len(m) != len(perLayer) {
		return nil, fmt.Errorf("%s reported %d per-layer metrics, want %d", workload, len(m), len(perLayer))
	}
	return m, nil
}
