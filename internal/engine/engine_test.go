package engine

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"hybridmr/internal/corpus"
	"hybridmr/internal/units"
)

func newHDFS(t testing.TB) *MemHDFS {
	t.Helper()
	s, err := NewMemHDFS(12, 4*units.KB, 2, 64*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newOFS(t testing.TB) *MemOFS {
	t.Helper()
	s, err := NewMemOFS(32, 4*units.KB)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// referenceWordcount is the single-threaded oracle.
func referenceWordcount(data []byte) map[string]int64 {
	counts := make(map[string]int64)
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		for _, w := range bytes.Fields(line) {
			counts[string(w)]++
		}
	}
	return counts
}

func runWordcount(t *testing.T, store BlockStore, data []byte, reducers, slots int) map[string]string {
	t.Helper()
	if err := store.Create("in", data); err != nil {
		t.Fatal(err)
	}
	cfg := NewWordcount(store, "in", "out", reducers, slots, slots)
	ctr, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ctr.InputBytes != units.Bytes(len(data)) {
		t.Errorf("InputBytes = %d, want %d", ctr.InputBytes, len(data))
	}
	ds, err := store.Open("out")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, ds.Size())
	if _, err := readFull(ds, buf, 0); err != nil {
		t.Fatal(err)
	}
	out, err := ParseOutput(buf)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// Wordcount on the engine matches the single-threaded oracle exactly, on
// both store kinds and across worker counts.
func TestWordcountCorrectness(t *testing.T) {
	text, err := corpus.Generate(corpus.DefaultConfig(), 64*units.KB)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceWordcount(text)
	for _, tc := range []struct {
		name     string
		store    BlockStore
		reducers int
		slots    int
	}{
		{"hdfs-1worker", newHDFS(t), 3, 1},
		{"hdfs-8workers", newHDFS(t), 5, 8},
		{"ofs-4workers", newOFS(t), 4, 4},
		{"ofs-1reducer", newOFS(t), 1, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := runWordcount(t, tc.store, text, tc.reducers, tc.slots)
			if len(got) != len(want) {
				t.Fatalf("%d distinct words, want %d", len(got), len(want))
			}
			for w, n := range want {
				if got[w] != strconv.FormatInt(n, 10) {
					t.Errorf("count[%q] = %s, want %d", w, got[w], n)
				}
			}
		})
	}
}

// Identical jobs on the two store kinds produce identical output.
func TestStoreEquivalence(t *testing.T) {
	text, err := corpus.Generate(corpus.DefaultConfig(), 32*units.KB)
	if err != nil {
		t.Fatal(err)
	}
	a := runWordcount(t, newHDFS(t), text, 4, 6)
	b := runWordcount(t, newOFS(t), text, 4, 6)
	if len(a) != len(b) {
		t.Fatalf("outputs differ in size: %d vs %d", len(a), len(b))
	}
	for k, v := range a {
		if b[k] != v {
			t.Errorf("key %q: %s vs %s", k, v, b[k])
		}
	}
}

// The combiner changes record counts but never results.
func TestCombinerEquivalence(t *testing.T) {
	text, _ := corpus.Generate(corpus.DefaultConfig(), 32*units.KB)
	withStore, withoutStore := newOFS(t), newOFS(t)
	if err := withStore.Create("in", text); err != nil {
		t.Fatal(err)
	}
	if err := withoutStore.Create("in", text); err != nil {
		t.Fatal(err)
	}
	with := NewWordcount(withStore, "in", "out", 4, 4, 4)
	without := with
	without.Store = withoutStore
	without.Combiner = nil
	cw, err := Run(with)
	if err != nil {
		t.Fatal(err)
	}
	co, err := Run(without)
	if err != nil {
		t.Fatal(err)
	}
	if cw.ShuffleBytes >= co.ShuffleBytes {
		t.Errorf("combiner did not shrink shuffle: %d vs %d", cw.ShuffleBytes, co.ShuffleBytes)
	}
	if cw.OutputRecords != co.OutputRecords {
		t.Errorf("output records differ: %d vs %d", cw.OutputRecords, co.OutputRecords)
	}
	bufOf := func(s BlockStore) []byte {
		ds, err := s.Open("out")
		if err != nil {
			t.Fatal(err)
		}
		b := make([]byte, ds.Size())
		if _, err := readFull(ds, b, 0); err != nil {
			t.Fatal(err)
		}
		return b
	}
	if !bytes.Equal(bufOf(withStore), bufOf(withoutStore)) {
		t.Error("combiner changed the job output")
	}
}

// Property: line-aligned splits process every line exactly once, for any
// block size and content — the TextInputFormat contract.
func TestSplitAlignmentProperty(t *testing.T) {
	f := func(raw []byte, blockRaw uint8) bool {
		block := units.Bytes(blockRaw%64) + 1
		// Normalize: the engine treats input as newline-separated text.
		text := bytes.ReplaceAll(raw, []byte{0}, []byte{'x'})
		store, err := NewMemOFS(4, block)
		if err != nil {
			return false
		}
		if len(text) == 0 {
			return true
		}
		if err := store.Create("in", text); err != nil {
			return false
		}
		cfg := Config{
			Name:     "lines",
			Store:    store,
			Input:    "in",
			Mapper:   countLinesMapper{},
			Reducer:  SumReducer{},
			Reducers: 2, MapSlots: 3, ReduceSlots: 2,
		}
		ctr, err := Run(cfg)
		if err != nil {
			return false
		}
		want := int64(0)
		for _, line := range bytes.Split(text, []byte{'\n'}) {
			if len(line) > 0 {
				want++
			}
		}
		return ctr.InputRecords == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

type countLinesMapper struct{}

func (countLinesMapper) Map(line string, emit func(k, v string)) error {
	emit("lines", "1")
	return nil
}

func TestGrep(t *testing.T) {
	text := []byte("alpha beta\ngamma delta\nalpha gamma\nnothing here\n")
	store := newOFS(t)
	if err := store.Create("in", text); err != nil {
		t.Fatal(err)
	}
	cfg, err := NewGrep(store, "in", "out", "alpha", 2, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctr, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ctr.MapOutputRecords != 2 {
		t.Errorf("matches = %d, want 2", ctr.MapOutputRecords)
	}
	ds, _ := store.Open("out")
	buf := make([]byte, ds.Size())
	if _, err := readFull(ds, buf, 0); err != nil {
		t.Fatal(err)
	}
	out, err := ParseOutput(buf)
	if err != nil {
		t.Fatal(err)
	}
	if out["alpha"] != "2" {
		t.Errorf("grep output = %v", out)
	}
}

func TestGrepBadPattern(t *testing.T) {
	if _, err := NewGrep(newOFS(t), "in", "out", "([", 1, 1, 1); err == nil {
		t.Error("bad pattern accepted")
	}
}

// Grep's shuffle/input ratio is far below Wordcount's — the measured basis
// for the paper's ratio bands.
func TestMeasuredShuffleRatios(t *testing.T) {
	text, _ := corpus.Generate(corpus.DefaultConfig(), 128*units.KB)
	wcStore := newOFS(t)
	if err := wcStore.Create("in", text); err != nil {
		t.Fatal(err)
	}
	wcCfg := NewWordcount(wcStore, "in", "", 4, 4, 4)
	wcCfg.Combiner = nil // raw shuffle volume, as the paper measures it
	wc, err := Run(wcCfg)
	if err != nil {
		t.Fatal(err)
	}
	grStore := newOFS(t)
	if err := grStore.Create("in", text); err != nil {
		t.Fatal(err)
	}
	grCfg, err := NewGrep(grStore, "in", "", "w0000", 4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := Run(grCfg)
	if err != nil {
		t.Fatal(err)
	}
	if wc.ShuffleInputRatio() <= 2*gr.ShuffleInputRatio() {
		t.Errorf("wordcount S/I %.3f not well above grep S/I %.3f",
			float64(wc.ShuffleInputRatio()), float64(gr.ShuffleInputRatio()))
	}
}

func TestRunValidation(t *testing.T) {
	store := newOFS(t)
	good := NewWordcount(store, "in", "", 1, 1, 1)
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"no store", func(c *Config) { c.Store = nil }},
		{"no input", func(c *Config) { c.Input = "" }},
		{"no mapper", func(c *Config) { c.Mapper = nil }},
		{"no reducer", func(c *Config) { c.Reducer = nil }},
		{"no reducers", func(c *Config) { c.Reducers = 0 }},
		{"no slots", func(c *Config) { c.MapSlots = 0 }},
	}
	for _, tc := range cases {
		cfg := good
		tc.mut(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: Run succeeded", tc.name)
		}
	}
	// Missing input dataset.
	if _, err := Run(good); err == nil {
		t.Error("missing dataset accepted")
	}
}

// HashPartitioner is bit-identical to hash/fnv's 32-bit FNV-1a modulo n, so
// partition assignment, and with it every job output, is unchanged by the
// inline hash.
func TestHashPartitionerMatchesFNV(t *testing.T) {
	f := func(key string, nRaw uint16) bool {
		n := int(nRaw) + 1
		h := fnv.New32a()
		_, _ = h.Write([]byte(key))
		return HashPartitioner(key, n) == int(h.Sum32()%uint32(n))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// A read error while aligning a split to line boundaries fails the job,
// naming the job and task, instead of being taken for the end of the data.
func TestReadErrorFailsJob(t *testing.T) {
	text, err := corpus.Generate(corpus.DefaultConfig(), 16*units.KB)
	if err != nil {
		t.Fatal(err)
	}
	store := newOFS(t)
	if err := store.Create("in", text); err != nil {
		t.Fatal(err)
	}
	block := int64(store.mustOpen(t, "in").BlockSize())
	flaky := flakyStore{store, block - 1}
	_, err = Run(NewWordcount(flaky, "in", "", 2, 1, 1))
	if !errors.Is(err, errFlakyRead) || !strings.Contains(err.Error(), "job wordcount task 0") {
		t.Errorf("Run error = %v, want the flaky read of task 0", err)
	}
}

// A dataset that serves fewer bytes than its Size reports fails the job
// with io.ErrUnexpectedEOF, naming the job and the task whose split came
// up short, instead of mapping a silently truncated split.
func TestShortReadFailsJob(t *testing.T) {
	text := strings.Repeat("word word word\n", 1000) // 15000 B: 4 blocks of 4 KB
	store := newOFS(t)
	if err := store.Create("in", []byte(text)); err != nil {
		t.Fatal(err)
	}
	short := shortStore{store, int64(len(text)) - 5} // cut inside the last line
	_, err := Run(NewWordcount(short, "in", "", 2, 1, 1))
	if !errors.Is(err, io.ErrUnexpectedEOF) || !strings.Contains(err.Error(), "job wordcount task 3") {
		t.Errorf("Run error = %v, want io.ErrUnexpectedEOF from task 3", err)
	}
}

// shortStore serves datasets that end at byte cut but report their full
// Size.
type shortStore struct {
	*MemOFS
	cut int64
}

func (s shortStore) Open(name string) (Dataset, error) {
	d, err := s.MemOFS.Open(name)
	return shortDataset{d, s.cut}, err
}

type shortDataset struct {
	Dataset
	cut int64
}

func (d shortDataset) ReadAt(p []byte, off int64) (int, error) {
	if off >= d.cut {
		return 0, io.EOF
	}
	if off+int64(len(p)) > d.cut {
		n, _ := d.Dataset.ReadAt(p[:d.cut-off], off)
		return n, io.EOF
	}
	return d.Dataset.ReadAt(p, off)
}

var errFlakyRead = errors.New("flaky read")

// flakyStore serves datasets whose reads at or past offset from fail.
type flakyStore struct {
	*MemOFS
	from int64
}

func (s flakyStore) Open(name string) (Dataset, error) {
	d, err := s.MemOFS.Open(name)
	return flakyDataset{d, s.from}, err
}

type flakyDataset struct {
	Dataset
	from int64
}

func (d flakyDataset) ReadAt(p []byte, off int64) (int, error) {
	if off >= d.from {
		return 0, errFlakyRead
	}
	return d.Dataset.ReadAt(p, off)
}

func TestBadPartitioner(t *testing.T) {
	store := newOFS(t)
	if err := store.Create("in", []byte("a b c\n")); err != nil {
		t.Fatal(err)
	}
	cfg := NewWordcount(store, "in", "", 2, 2, 2)
	cfg.Partitioner = func(string, int) int { return 99 }
	if _, err := Run(cfg); err == nil {
		t.Error("out-of-range partitioner accepted")
	}
}

func TestMapperErrorPropagates(t *testing.T) {
	store := newOFS(t)
	if err := store.Create("in", []byte("boom\n")); err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Name: "boom", Store: store, Input: "in",
		Mapper:   failingMapper{},
		Reducer:  SumReducer{},
		Reducers: 1, MapSlots: 2, ReduceSlots: 1,
	}
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("mapper error not propagated: %v", err)
	}
}

type failingMapper struct{}

func (failingMapper) Map(string, func(string, string)) error {
	return fmt.Errorf("boom mapper")
}

func TestSumReducerBadValue(t *testing.T) {
	err := SumReducer{}.Reduce("k", []string{"not-a-number"}, func(string, string) {})
	if err == nil {
		t.Error("bad value accepted")
	}
}

func TestDFSIOWriteEngine(t *testing.T) {
	store := newOFS(t)
	res, err := DFSIOWrite(store, "io", 8, 16*units.KB, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalBytes != 128*units.KB {
		t.Errorf("TotalBytes = %v", res.TotalBytes)
	}
	if res.Throughput <= 0 {
		t.Error("non-positive throughput")
	}
	if got := len(store.List()); got != 8 {
		t.Errorf("%d files stored, want 8", got)
	}
	// Capacity errors surface (HDFS-like store with a small cap).
	small, err := NewMemHDFS(2, 4*units.KB, 2, 32*units.KB)
	if err != nil {
		t.Fatal(err)
	}
	_, err = DFSIOWrite(small, "io", 8, 16*units.KB, 2)
	if err == nil || !ErrCapacity(err) {
		t.Errorf("capacity error = %v", err)
	}
	// Parameter validation.
	if _, err := DFSIOWrite(store, "x", 0, units.KB, 1); err == nil {
		t.Error("0 files accepted")
	}
	if _, err := DFSIOWrite(store, "x", 1, 0, 1); err == nil {
		t.Error("0 size accepted")
	}
	if _, err := DFSIOWrite(store, "x", 1, units.KB, 0); err == nil {
		t.Error("0 slots accepted")
	}
}

func TestCountersShape(t *testing.T) {
	text, _ := corpus.Generate(corpus.DefaultConfig(), 32*units.KB)
	store := newOFS(t)
	if err := store.Create("in", text); err != nil {
		t.Fatal(err)
	}
	ctr, err := Run(NewWordcount(store, "in", "", 4, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	if ctr.MapTasks != store.mustOpen(t, "in").NumBlocks() {
		t.Errorf("MapTasks = %d", ctr.MapTasks)
	}
	if ctr.InputRecords == 0 || ctr.MapOutputRecords == 0 || ctr.OutputRecords == 0 {
		t.Errorf("zero counters: %+v", ctr)
	}
	if ctr.OutputBytes == 0 {
		t.Error("zero output bytes")
	}
	if ctr.ShuffleInputRatio() <= 0 {
		t.Error("non-positive shuffle/input ratio")
	}
	if (Counters{}).ShuffleInputRatio() != 0 {
		t.Error("empty counters ratio should be 0")
	}
}

func (s *MemOFS) mustOpen(t *testing.T, name string) Dataset {
	t.Helper()
	d, err := s.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestParseOutputErrors(t *testing.T) {
	if _, err := ParseOutput([]byte("no-tab-here\n")); err == nil {
		t.Error("malformed line accepted")
	}
	m, err := ParseOutput([]byte("a\t1\nb\t2\n"))
	if err != nil || len(m) != 2 || m["a"] != "1" {
		t.Errorf("ParseOutput = %v, %v", m, err)
	}
}

// Many engine jobs running concurrently against one shared store produce
// the same answers as sequential runs — the store-sharing claim of the
// hybrid architecture, under the race detector in CI.
func TestConcurrentJobsSharedStore(t *testing.T) {
	text, err := corpus.Generate(corpus.DefaultConfig(), 64*units.KB)
	if err != nil {
		t.Fatal(err)
	}
	store := newOFS(t)
	if err := store.Create("shared", text); err != nil {
		t.Fatal(err)
	}
	want := referenceWordcount(text)
	const jobs = 8
	results := make([]map[string]string, jobs)
	errs := make([]error, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := NewWordcount(store, "shared", fmt.Sprintf("out-%d", i), 3, 4, 2)
			if _, err := Run(cfg); err != nil {
				errs[i] = err
				return
			}
			ds, err := store.Open(fmt.Sprintf("out-%d", i))
			if err != nil {
				errs[i] = err
				return
			}
			buf := make([]byte, ds.Size())
			if _, err := readFull(ds, buf, 0); err != nil {
				errs[i] = err
				return
			}
			results[i], errs[i] = ParseOutput(buf)
		}()
	}
	wg.Wait()
	for i := 0; i < jobs; i++ {
		if errs[i] != nil {
			t.Fatalf("job %d: %v", i, errs[i])
		}
		if len(results[i]) != len(want) {
			t.Fatalf("job %d: %d words, want %d", i, len(results[i]), len(want))
		}
		for w, n := range want {
			if results[i][w] != strconv.FormatInt(n, 10) {
				t.Fatalf("job %d: count[%q] = %s, want %d", i, w, results[i][w], n)
			}
		}
	}
}
