package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// rtNames are the runtime/metrics samples taken around timed ops.
var rtNames = [...]string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

// rtCounters is one reading of rtNames, or the sum of deltas between
// readings, in rtNames order.
type rtCounters [len(rtNames)]float64

func (c rtCounters) allocBytes() float64   { return c[0] }
func (c rtCounters) allocObjects() float64 { return c[1] }
func (c rtCounters) gcCycles() float64     { return c[2] }

// gcCPUFrac is the share of the CPU time the process used that went to
// the garbage collector. Idle time of the GOMAXPROCS budget is excluded.
func (c rtCounters) gcCPUFrac() float64 {
	busy := c[4] - c[5]
	if busy <= 0 {
		return 0
	}
	return c[3] / busy
}

// rtReader reads rtNames without allocating after construction.
type rtReader struct{ samples []metrics.Sample }

func newRTReader() *rtReader {
	r := &rtReader{samples: make([]metrics.Sample, len(rtNames))}
	for i, n := range rtNames {
		r.samples[i].Name = n
	}
	return r
}

func (r *rtReader) read() rtCounters {
	metrics.Read(r.samples)
	var c rtCounters
	for i, s := range r.samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			c[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			c[i] = s.Value.Float64()
		}
	}
	return c
}

// add accumulates the delta between two readings.
func (c *rtCounters) add(before, after rtCounters) {
	for i := range c {
		c[i] += after[i] - before[i]
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ms converts durations to milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// pctOver returns how much larger x is than base, in percent.
func pctOver(x, base float64) float64 { return 100 * ratio(x-base, base) }
