package main

import (
	"encoding/json"
	"errors"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"hybridmr/internal/core"
	"hybridmr/internal/corpus"
	"hybridmr/internal/mapreduce"
	"hybridmr/internal/units"
)

// testParams shrink every input so a whole run takes a fraction of a
// second.
var testParams = params{
	variants: 2, traceJobs: 300, reportJobs: 200,
	grepBytes: 256 * units.KB, smallBytes: 64 * units.KB,
	dfsioFiles: 2, dfsioFileBytes: 64 * units.KB,
}

const testSeed = 7

// testRuns holds one untraced and one traced run of each workload, shared
// by the tests below.
var testRuns = struct {
	once             sync.Once
	untraced, traced map[string]*outcome
	err              error
}{}

func runAll(t *testing.T) (untraced, traced map[string]*outcome) {
	t.Helper()
	testRuns.once.Do(func() {
		testRuns.untraced = make(map[string]*outcome)
		testRuns.traced = make(map[string]*outcome)
		for _, w := range allWorkloads {
			for _, tr := range []bool{false, true} {
				o, err := runBench(config{workload: w, seed: testSeed, p: testParams, traced: tr, duration: 0})
				if err != nil {
					testRuns.err = err
					return
				}
				if tr {
					testRuns.traced[w] = o
				} else {
					testRuns.untraced[w] = o
				}
			}
		}
	})
	if testRuns.err != nil {
		t.Fatal(testRuns.err)
	}
	return testRuns.untraced, testRuns.traced
}

type benchJSON struct {
	Workloads []struct {
		Name, Why string
	}
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name, Unit, Better string
	Bound              float64
}

func readBenchmarkJSON(t *testing.T) benchJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMetricsMatchBenchmarkJSON keeps the metric tables and BENCHMARK.json
// in step, and every per-layer metric tied to the workloads it measures
// and to what it should move.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(allWorkloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, allWorkloads)
	}
	for _, list := range []struct {
		name string
		json []jsonMetric
		defs []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(list.json) != len(list.defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the table %d", list.name, len(list.json), len(list.defs))
		}
		for i, d := range list.defs {
			j := list.json[i]
			if j.Name != d.name || j.Unit != d.unit || j.Better != d.better || j.Bound != d.bound {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, table %s %s %s %g", list.name, i, j, d.name, d.unit, d.better, d.bound)
			}
			if list.name == "per_layer" && (len(d.on) == 0 || d.moves == "") {
				t.Errorf("per-layer %s does not say where it is measured and what it should move", d.name)
			}
		}
	}
}

// TestPrintedMetricsMatchBenchmarkJSON runs every workload untraced and
// traced and requires the metric names each prints to be exactly those in
// BENCHMARK.json, with every op passing its checks.
func TestPrintedMetricsMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	untraced, traced := runAll(t)
	want := func(ms []jsonMetric) string {
		var n []string
		for _, m := range ms {
			n = append(n, m.Name)
		}
		sort.Strings(n)
		return strings.Join(n, " ")
	}
	got := func(m map[string]float64) string {
		var n []string
		for k := range m {
			n = append(n, k)
		}
		sort.Strings(n)
		return strings.Join(n, " ")
	}
	for _, w := range allWorkloads {
		u, tr := untraced[w], traced[w]
		for _, o := range []*outcome{u, tr} {
			if o.failed != 0 || o.attempted < 2 {
				t.Errorf("%s: %d of %d ops failed", w, o.failed, o.attempted)
			}
		}
		if g, x := got(u.endToEndMetrics(u.setup, 1)), want(b.EndToEnd); g != x {
			t.Errorf("%s untraced prints %s\nwant %s", w, g, x)
		}
		m, err := tr.perLayerMetrics(w)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if g, x := got(m), want(b.PerLayer); g != x {
			t.Errorf("%s traced prints %s\nwant %s", w, g, x)
		}
	}
}

// TestSpanSelfTimesNonNegative checks every traced span of every workload:
// no child outlives its parent, so no self time is negative.
func TestSpanSelfTimesNonNegative(t *testing.T) {
	_, traced := runAll(t)
	for _, w := range allWorkloads {
		l := traced[w].spans
		if len(l.spans) == 0 {
			t.Fatalf("%s recorded no spans", w)
		}
		for i, self := range l.selfTimes() {
			if s := l.spans[i]; self < 0 || s.End < s.Start {
				t.Errorf("%s span %d %s: self %v, start %v, end %v", w, i, s.Name, self, s.Start, s.End)
			}
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	l := &spanLog{spans: []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 40, End: 90, Parent: 0},
		{Name: "b.1", Start: 50, End: 60, Parent: 2},
	}}
	want := []time.Duration{30, 20, 40, 10}
	for i, got := range l.selfTimes() {
		if got != want[i] {
			t.Errorf("span %s self %v, want %v", l.spans[i].Name, got, want[i])
		}
	}
}

func TestRefBook(t *testing.T) {
	key := refKey{"test", 5}
	storedRefs[key] = 42
	defer delete(storedRefs, key)
	b := newRefBook("test", 5, 2, true)
	if b.match(0, 41) == nil {
		t.Error("variant 0 accepted a digest other than the stored one")
	}
	if err := b.match(1, 7); err != nil {
		t.Errorf("first op on variant 1: %v", err)
	}
	if b.match(1, 8) == nil {
		t.Error("variant 1 accepted a digest other than its first op's")
	}
	if newRefBook("test", 5, 1, false).match(0, 41) != nil {
		t.Error("stored digest applied to non-default inputs")
	}
}

// TestAlteredSimulatorResultFailsCheck alters one simulated result, at
// the figure and at the per-job level, and requires the op's check to fail.
func TestAlteredSimulatorResultFailsCheck(t *testing.T) {
	f, err := newFBDay(testSeed, testParams, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.run(0, nil); err != nil {
		t.Fatal(err)
	}
	if err := f.check(0); err != nil {
		t.Fatal(err)
	}
	f.fig.Panels[0].Series[0].Y[3] += 1e-9
	if f.check(0) == nil {
		t.Error("a figure quantile altered by 1e-9 s passed the check")
	}

	s := f.setups[0]
	hybrid := plain(s.Hybrid.Run(s.Jobs))
	th := core.RunBaseline(s.THadoop, s.Jobs, mapreduce.Fair)
	rh := core.RunBaseline(s.RHadoop, s.Jobs, mapreduce.Fair)
	targets := make([]core.Target, len(s.Jobs))
	d, err := jobsDigest(s.Jobs, targets, [3][]mapreduce.Result{hybrid, th, rh})
	if err != nil {
		t.Fatal(err)
	}
	th[len(th)/2].Exec += time.Nanosecond
	if d2, err := jobsDigest(s.Jobs, targets, [3][]mapreduce.Result{hybrid, th, rh}); err == nil && d2 == d {
		t.Error("a job's exec time altered by 1 ns kept the per-job digest")
	}
	rh[0].Err = errAltered
	if _, err := jobsDigest(s.Jobs, targets, [3][]mapreduce.Result{hybrid, th, rh}); err == nil {
		t.Error("a failed job passed the per-job check")
	}

	r, err := newFaultedReport(testSeed, testParams, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.run(0, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.check(0); err != nil {
		t.Fatal(err)
	}
	r.export.WriteString(" ")
	if r.check(0) == nil {
		t.Error("an altered observability export passed the check")
	}
	r.rep.THadoop.OK--
	if r.check(0) == nil {
		t.Error("a report losing a job passed the check")
	}
}

var errAltered = errors.New("altered")

// TestAlteredEngineRecordFailsCheck alters one record of each real engine
// output, and the DFSIO read-back, and requires the op's check to fail.
func TestAlteredEngineRecordFailsCheck(t *testing.T) {
	e, err := newEngineMix(testSeed, testParams, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.run(0, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.check(0); err != nil {
		t.Fatal(err)
	}
	outputs := make([][]byte, len(engineApps))
	for i := range engineApps {
		out, err := e.output(e.stores[i])
		if err != nil {
			t.Fatal(err)
		}
		outputs[i] = append([]byte(nil), out...)
	}
	wc, grep, srt := outputs[0], outputs[1], outputs[2]

	alter := func(out []byte, old, new string) []byte {
		i := strings.Index(string(out), old)
		if i < 0 {
			t.Fatalf("%q not in output", old)
		}
		return []byte(string(out[:i]) + new + string(out[i+len(old):]))
	}
	first := e.words[0]
	if checkWordcount(alter(wc, first.word+"\t", first.word+"\t1"), e.words) == nil {
		t.Error("a wordcount record with an altered count passed")
	}
	if checkWordcount(wc[:len(wc)-1], e.words) == nil {
		t.Error("a truncated wordcount output passed")
	}
	second := e.words[1]
	swapped := alter(srt, first.word+"\t\n", second.word+"\t\n")
	if checkSort(swapped, e.words) == nil {
		t.Error("a sort output with a record replaced passed")
	}
	if checkSort(srt[len(first.word)+2:], e.words) == nil {
		t.Error("a sort output missing a record passed")
	}
	if checkGrep(alter(grep, "\t", "\t9"), corpus.Word(grepRank), e.grepLines) == nil {
		t.Error("a grep output with an altered count passed")
	}
	e.read.TotalBytes--
	if e.check(0) == nil {
		t.Error("a DFSIO read-back one byte short passed")
	}
}

// TestStoredDigests replays variant 0 of the development and held-out
// seeds at full size and requires the stored digests.
func TestStoredDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size inputs")
	}
	for _, seed := range []int64{devSeed, heldOutSeed} {
		for _, w := range allWorkloads {
			sp := newSpanLog()
			s, o, err := setUp(config{workload: w, seed: seed, p: defaultParams()}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if o.failed != 0 {
				t.Errorf("%s seed %d: the set-up op does not reproduce the stored digest", w, seed)
			}
			var books []*refBook
			switch s := s.(type) {
			case *fbDay:
				if err := s.probe(0, sp); err != nil {
					t.Errorf("%s seed %d: %v", w, seed, err)
				}
				books = []*refBook{s.figRefs, s.jobRefs}
			case *faultedReport:
				books = []*refBook{s.refs}
			case *engineMix:
				books = []*refBook{s.refs}
			}
			for _, b := range books {
				key := refKey{b.kind, seed}
				if _, ok := storedRefs[key]; !ok {
					t.Errorf("no stored digest: add {%q, %d}: %#016x", b.kind, seed, b.want[0])
				}
			}
		}
	}
}
