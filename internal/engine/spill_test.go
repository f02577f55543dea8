package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"hybridmr/internal/corpus"
	"hybridmr/internal/units"
)

// A bounded sort buffer spills but never changes the answer.
func TestSpillCorrectness(t *testing.T) {
	text, err := corpus.Generate(corpus.DefaultConfig(), 64*units.KB)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceWordcount(text)
	store := newOFS(t)
	if err := store.Create("in", text); err != nil {
		t.Fatal(err)
	}
	cfg := NewWordcount(store, "in", "out", 4, 6, 4)
	cfg.SortBufferRecords = 64 // tiny: every task spills many times
	ctr, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ctr.Spills == 0 {
		t.Fatal("tiny sort buffer never spilled")
	}
	ds, _ := store.Open("out")
	buf := make([]byte, ds.Size())
	if _, err := readFull(ds, buf, 0); err != nil {
		t.Fatal(err)
	}
	got, err := ParseOutput(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d words, want %d", len(got), len(want))
	}
	for w, n := range want {
		if got[w] != strconv.FormatInt(n, 10) {
			t.Errorf("count[%q] = %s, want %d", w, got[w], n)
		}
	}
}

// Spilling plus the per-segment combiner shrinks shuffle volume relative to
// spilling without one.
func TestSpillCombinerShrinksShuffle(t *testing.T) {
	text, _ := corpus.Generate(corpus.DefaultConfig(), 64*units.KB)
	run := func(withCombiner bool) Counters {
		store := newOFS(t)
		if err := store.Create("in", text); err != nil {
			t.Fatal(err)
		}
		cfg := NewWordcount(store, "in", "", 4, 4, 4)
		cfg.SortBufferRecords = 128
		if !withCombiner {
			cfg.Combiner = nil
		}
		ctr, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return ctr
	}
	with, without := run(true), run(false)
	if with.ShuffleBytes >= without.ShuffleBytes {
		t.Errorf("combined spill shuffle %d not below raw %d", with.ShuffleBytes, without.ShuffleBytes)
	}
}

// Property: Run agrees with a naive reference (naiveRun) on random corpora
// for every sort-buffer bound — unbounded, 1, small and larger than a task's
// output — reducer count, application and with the combiner on and off:
// output bytes and every counter but the wall times are identical. The
// "scramble" application's combiner and reducer emit keys other than their
// group key, out of order, which exercises the engine's sort fallback.
func TestSpillEquivalenceProperty(t *testing.T) {
	bounds := []int{0, 1, 7, 1 << 14}
	reducers := []int{1, 2, 5}
	apps := []struct {
		name              string
		mapper            Mapper
		reducer, combiner Reducer
	}{
		{"wordcount", WordcountMapper{}, SumReducer{}, SumReducer{}},
		{"sort", firstByteMapper{}, IdentityReducer{}, IdentityReducer{}},
		{"scramble", WordcountMapper{}, scrambleReducer{}, scrambleReducer{}},
	}
	f := func(seed int64, bi, ri, ai, blockRaw uint8, combine bool) bool {
		app := apps[int(ai)%len(apps)]
		text := randomCorpus(rand.New(rand.NewSource(seed)))
		store, err := NewMemOFS(4, units.Bytes(blockRaw)+64)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Create("in", text); err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Name: app.name, Store: store, Input: "in", Output: "out",
			Mapper: app.mapper, Reducer: valueOrderChecked{app.reducer},
			Reducers: reducers[int(ri)%len(reducers)], MapSlots: 3, ReduceSlots: 2,
			SortBufferRecords: bounds[int(bi)%len(bounds)],
		}
		if combine {
			cfg.Combiner = valueOrderChecked{app.combiner}
		}
		got, err := Run(cfg)
		if err != nil {
			t.Errorf("%s: %v", app.name, err)
			return false
		}
		got.MapWall, got.ShuffleWall, got.ReduceWall = 0, 0, 0
		wantOut, want := naiveRun(cfg, text, store.mustOpen(t, "in").BlockSize())
		if gotOut := readAll(t, store, "out"); got != want || !bytes.Equal(gotOut, wantOut) {
			t.Errorf("%s bound %d reducers %d combiner %v:\ncounters %+v\nwant     %+v\noutput %q\nwant   %q",
				app.name, cfg.SortBufferRecords, cfg.Reducers, combine, got, want, gotOut, wantOut)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// randomCorpus returns up to a few KB of lines over a tiny alphabet, NUL
// included: short words repeat often, and some share a long stem.
func randomCorpus(rng *rand.Rand) []byte {
	const alphabet = "ab\x00"
	var buf bytes.Buffer
	for lines := rng.Intn(80); lines >= 0; lines-- {
		for words := rng.Intn(9); words > 0; words-- {
			if rng.Intn(3) == 0 {
				buf.WriteString("aaaaaaaa")
			}
			for n := 1 + rng.Intn(4); n > 0; n-- {
				buf.WriteByte(alphabet[rng.Intn(len(alphabet))])
			}
			buf.WriteByte(' ')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("tail") // a last line without a newline
	return buf.Bytes()
}

// firstByteMapper emits (first byte, word) per word: many equal keys with
// distinct values, so value order matters.
type firstByteMapper struct{}

func (firstByteMapper) Map(line string, emit func(k, v string)) error {
	for _, w := range strings.Fields(line) {
		emit(w[:1], w)
	}
	return nil
}

// valueOrderChecked fails a group whose values do not arrive in ascending
// order, as the Reducer contract promises.
type valueOrderChecked struct{ Reducer }

func (r valueOrderChecked) Reduce(key string, values []string, emit func(k, v string)) error {
	if !slices.IsSorted(values) {
		return fmt.Errorf("values of %q out of order: %q", key, values)
	}
	return r.Reducer.Reduce(key, values, emit)
}

// scrambleReducer sums its values and emits the total under the reversed
// key, then a marker under the key itself: its output is out of key order.
type scrambleReducer struct{}

func (scrambleReducer) Reduce(key string, values []string, emit func(k, v string)) error {
	total := 0
	for _, v := range values {
		n, err := strconv.Atoi(strings.TrimSuffix(v, "!"))
		if err != nil {
			return err
		}
		total += n
	}
	r := []byte(key)
	slices.Reverse(r)
	emit(string(r), strconv.Itoa(total))
	emit(key, "0!")
	return nil
}

// naiveRun is the reference the engine is checked against, built from the
// plainest steps: each line goes to the task whose block it starts in; a
// task's output is cut into chunks of SortBufferRecords records (one chunk
// when 0), each sorted, grouped and combined; several combined chunks are
// concatenated, sorted, grouped and combined again. Then everything is
// partitioned, each partition sorted, grouped and reduced, and the job's
// output sorted once more.
func naiveRun(cfg Config, text []byte, block units.Bytes) ([]byte, Counters) {
	ctr := Counters{InputBytes: units.Bytes(len(text)), MapTasks: units.Bytes(len(text)).Blocks(block)}
	tasks := make([][]kv, ctr.MapTasks)
	for off := 0; off < len(text); {
		end := bytes.IndexByte(text[off:], '\n')
		if end < 0 {
			end = len(text) - off
		}
		if end > 0 {
			ctr.InputRecords++
			task := off / int(block)
			_ = cfg.Mapper.Map(string(text[off:off+end]), func(k, v string) { tasks[task] = append(tasks[task], kv{k, v}) })
		}
		off += end + 1
	}
	sortGroupReduce := func(pairs []kv, r Reducer) []kv {
		pairs = slices.Clone(pairs)
		slices.SortFunc(pairs, cmpKV)
		var out []kv
		for i := 0; i < len(pairs); {
			j := i
			var vals []string
			for ; j < len(pairs) && pairs[j].k == pairs[i].k; j++ {
				vals = append(vals, pairs[j].v)
			}
			_ = r.Reduce(pairs[i].k, vals, func(k, v string) { out = append(out, kv{k, v}) })
			i = j
		}
		return out
	}
	byReducer := make([][]kv, cfg.Reducers)
	for _, pairs := range tasks {
		ctr.MapOutputRecords += int64(len(pairs))
		size := cfg.SortBufferRecords
		if size == 0 {
			size = len(pairs)
		}
		var chunks [][]kv
		for rest := pairs; len(rest) > 0; {
			n := min(size, len(rest))
			chunks, rest = append(chunks, rest[:n]), rest[n:]
		}
		if cfg.SortBufferRecords > 0 {
			ctr.Spills += int64(len(chunks))
		}
		var out []kv
		for _, c := range chunks {
			if cfg.Combiner != nil {
				c = sortGroupReduce(c, cfg.Combiner)
			}
			out = append(out, c...)
		}
		if cfg.Combiner != nil && len(chunks) > 1 {
			out = sortGroupReduce(out, cfg.Combiner)
		}
		for _, p := range out {
			ctr.ShuffleBytes += units.Bytes(len(p.k) + len(p.v))
			r := HashPartitioner(p.k, cfg.Reducers)
			byReducer[r] = append(byReducer[r], p)
		}
	}
	var all []kv
	for _, pairs := range byReducer {
		all = append(all, sortGroupReduce(pairs, cfg.Reducer)...)
	}
	ctr.OutputRecords = int64(len(all))
	slices.SortFunc(all, cmpKV)
	var out []byte
	for _, p := range all {
		out = append(out, p.k+"\t"+p.v+"\n"...)
	}
	ctr.OutputBytes = units.Bytes(len(out))
	return out, ctr
}

func readAll(t *testing.T, store BlockStore, name string) []byte {
	t.Helper()
	ds, err := store.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, ds.Size())
	if _, err := readFull(ds, buf, 0); err != nil {
		t.Fatal(err)
	}
	return buf
}

func TestSpillValidation(t *testing.T) {
	store := newOFS(t)
	if err := store.Create("in", []byte("a b\n")); err != nil {
		t.Fatal(err)
	}
	cfg := NewWordcount(store, "in", "", 1, 1, 1)
	cfg.SortBufferRecords = -1
	if _, err := Run(cfg); err == nil {
		t.Error("negative sort buffer accepted")
	}
}

// Unit coverage of the merge machinery.
func TestMergeSegments(t *testing.T) {
	segs := [][]kv{
		{{"a", "1"}, {"c", "1"}, {"e", "1"}},
		{{"b", "1"}, {"c", "2"}},
		{},
		{{"a", "0"}},
	}
	merged := mergeRuns(segs)
	if len(merged) != 6 {
		t.Fatalf("merged %d pairs", len(merged))
	}
	for i := 1; i < len(merged); i++ {
		if merged[i].k < merged[i-1].k {
			t.Fatalf("merge not sorted: %v", merged)
		}
	}
	if merged[0] != (kv{"a", "0"}) || merged[1] != (kv{"a", "1"}) {
		t.Errorf("value tie-break wrong: %v", merged[:2])
	}
}

func TestSpillBufferDrainEmpty(t *testing.T) {
	sb := newSpillBuffer(4, SumReducer{})
	out, err := sb.drain()
	if err != nil || len(out) != 0 {
		t.Errorf("empty drain = %v, %v", out, err)
	}
}
