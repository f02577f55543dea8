package main

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"time"

	"hybridmr/internal/corpus"
	"hybridmr/internal/engine"
	"hybridmr/internal/units"
)

// Engine settings: 2 map and 2 reduce slots as on the benchmark host's two
// CPUs, a bounded map-side sort buffer (Hadoop's io.sort.mb) so the spill
// path runs, and the Grep pattern: a mid-frequency corpus word.
const (
	engineSlots    = 2
	engineReducers = 2
	sortBuffer     = 1 << 14
	grepRank       = 100
)

// engineApp is one MapReduce application of the mix.
type engineApp struct {
	name  string
	span  string
	large bool // reads the Grep-sized corpus instead of its prefix
	job   func(store engine.BlockStore) (engine.Config, error)
}

var engineApps = [3]engineApp{
	{name: "wordcount", span: "engine.Run.wordcount", job: func(s engine.BlockStore) (engine.Config, error) {
		return engine.NewWordcount(s, "in", "out", engineReducers, engineSlots, engineSlots), nil
	}},
	{name: "grep", span: "engine.Run.grep", large: true, job: func(s engine.BlockStore) (engine.Config, error) {
		return engine.NewGrep(s, "in", "out", corpus.Word(grepRank), engineReducers, engineSlots, engineSlots)
	}},
	{name: "sort", span: "engine.Run.sort", job: func(s engine.BlockStore) (engine.Config, error) {
		return engine.NewSort(s, "in", "out", engineReducers, engineSlots, engineSlots), nil
	}},
}

const (
	spanDFSIOWrite = "engine.DFSIOWrite"
	spanDFSIORead  = "engine.DFSIORead"
)

// engineMix runs the real engine, the one path that is not simulated, on
// a seeded Zipf corpus: Wordcount (map-bound, with a combiner) and Sort
// (shuffle- and reduce-bound) on a prefix of the corpus, Grep (map-bound)
// on all of it, all on MemOFS; then a DFSIO write followed by a read on
// MemHDFS with replication 2.
type engineMix struct {
	p          params
	big, small []byte
	// words is the oracle: small's distinct words in order with their
	// counts; grepLines counts big's lines holding the Grep pattern.
	words     []wordCount
	grepLines int64

	// The last op's outputs.
	stores [3]*engine.MemOFS
	ctrs   [3]engine.Counters
	walls  [3]time.Duration
	write  engine.DFSIOResult
	read   engine.DFSIOResult
	ioWall time.Duration
	buf    []byte
	refs   *refBook

	// runs counts ops; the first is the set-up op, which is not sampled.
	runs int
	// appMBs are the untraced ops' per-app MB/s, the last being DFSIO.
	appMBs [4][]float64
	// traced ops' counters and DFSIO throughputs.
	tracedCtrs [3][]engine.Counters
	writeMBs   []float64
	readMBs    []float64
}

type wordCount struct {
	word string
	n    int64
}

func newEngineMix(seed int64, p params, sp *spanLog) (*engineMix, error) {
	cfg := corpus.DefaultConfig()
	cfg.Seed = corpusSeed(seed)
	id := sp.begin("corpus.Generate")
	big, err := corpus.Generate(cfg, p.grepBytes)
	sp.end(id)
	if err != nil {
		return nil, err
	}
	cut := int(p.smallBytes)
	if cut >= len(big) {
		return nil, fmt.Errorf("wordcount input %d B is not smaller than the grep corpus %d B", cut, len(big))
	}
	cut += bytes.IndexByte(big[cut:], '\n') + 1
	e := &engineMix{p: p, big: big, small: big[:cut], refs: newRefBook(engineName, seed, 1, p == defaultParams())}
	counts := make(map[string]int64)
	for _, w := range bytes.Fields(e.small) {
		counts[string(w)]++
	}
	for w, n := range counts {
		e.words = append(e.words, wordCount{w, n})
	}
	sort.Slice(e.words, func(i, j int) bool { return e.words[i].word < e.words[j].word })
	pattern := []byte(corpus.Word(grepRank))
	for rest := big; len(rest) > 0; {
		line := rest
		if nl := bytes.IndexByte(rest, '\n'); nl >= 0 {
			line, rest = rest[:nl], rest[nl+1:]
		} else {
			rest = nil
		}
		if bytes.Contains(line, pattern) {
			e.grepLines++
		}
	}
	return e, nil
}

func (e *engineMix) variants() int { return 1 }

// jobsPerOp counts Wordcount, Grep, Sort, DFSIO write and DFSIO read.
func (e *engineMix) jobsPerOp() int { return 5 }

func (e *engineMix) run(_ int, sp *spanLog) error {
	for i, app := range engineApps {
		input := e.small
		if app.large {
			input = e.big
		}
		id := sp.begin(app.span)
		t := time.Now()
		store, ctr, err := runApp(app, input)
		e.walls[i] = time.Since(t)
		sp.end(id)
		if err != nil {
			return fmt.Errorf("%s: %w", app.name, err)
		}
		e.stores[i], e.ctrs[i] = store, ctr
	}
	t := time.Now()
	hdfs, err := engine.NewMemHDFS(4, units.MB, 2, 4*units.Bytes(e.p.dfsioFiles)*e.p.dfsioFileBytes)
	if err != nil {
		return err
	}
	id := sp.begin(spanDFSIOWrite)
	e.write, err = engine.DFSIOWrite(hdfs, "io", e.p.dfsioFiles, e.p.dfsioFileBytes, engineSlots)
	sp.end(id)
	if err != nil {
		return err
	}
	id = sp.begin(spanDFSIORead)
	e.read, err = engine.DFSIORead(hdfs, "io", engineSlots)
	sp.end(id)
	e.ioWall = time.Since(t)
	if err != nil {
		return err
	}
	e.runs++
	switch {
	case e.runs == 1:
	case sp == nil:
		for i, app := range engineApps {
			in := e.small
			if app.large {
				in = e.big
			}
			e.appMBs[i] = append(e.appMBs[i], mbPerSec(units.Bytes(len(in)), e.walls[i]))
		}
		e.appMBs[3] = append(e.appMBs[3], mbPerSec(e.write.TotalBytes+e.read.TotalBytes, e.ioWall))
	default:
		for i := range engineApps {
			e.tracedCtrs[i] = append(e.tracedCtrs[i], e.ctrs[i])
		}
		e.writeMBs = append(e.writeMBs, float64(e.write.Throughput)/float64(units.MB))
		e.readMBs = append(e.readMBs, float64(e.read.Throughput)/float64(units.MB))
	}
	return nil
}

// runApp stores the input on a fresh MemOFS and runs one application on it.
func runApp(app engineApp, input []byte) (*engine.MemOFS, engine.Counters, error) {
	store, err := engine.NewMemOFS(8, 256*units.KB)
	if err != nil {
		return nil, engine.Counters{}, err
	}
	if err := store.Create("in", input); err != nil {
		return nil, engine.Counters{}, err
	}
	cfg, err := app.job(store)
	if err != nil {
		return nil, engine.Counters{}, err
	}
	cfg.SortBufferRecords = sortBuffer
	ctr, err := engine.Run(cfg)
	return store, ctr, err
}

func mbPerSec(b units.Bytes, d time.Duration) float64 {
	return ratio(float64(b)/float64(units.MB), d.Seconds())
}

// check compares every output with the oracles computed from the same
// input, and pins the outputs to the run's reference digest.
func (e *engineMix) check(_ int) error {
	h := fnvOffset
	for i, app := range engineApps {
		out, err := e.output(e.stores[i])
		if err != nil {
			return fmt.Errorf("%s output: %w", app.name, err)
		}
		switch app.name {
		case "wordcount":
			err = checkWordcount(out, e.words)
		case "grep":
			err = checkGrep(out, corpus.Word(grepRank), e.grepLines)
		case "sort":
			err = checkSort(out, e.words)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", app.name, err)
		}
		h = h.bytes(out)
	}
	want := units.Bytes(e.p.dfsioFiles) * e.p.dfsioFileBytes
	if e.write.TotalBytes != want || e.write.Files != e.p.dfsioFiles {
		return fmt.Errorf("dfsio wrote %d files, %d B; want %d files, %d B", e.write.Files, e.write.TotalBytes, e.p.dfsioFiles, want)
	}
	if e.read.TotalBytes != e.write.TotalBytes || e.read.Files != e.write.Files {
		return fmt.Errorf("dfsio read back %d files, %d B of %d files, %d B written", e.read.Files, e.read.TotalBytes, e.write.Files, e.write.TotalBytes)
	}
	return e.refs.match(0, uint64(h.word(uint64(e.read.TotalBytes))))
}

// output reads a job's output into the reused buffer.
func (e *engineMix) output(store *engine.MemOFS) ([]byte, error) {
	ds, err := store.Open("out")
	if err != nil {
		return nil, err
	}
	n := int(ds.Size())
	if cap(e.buf) < n {
		e.buf = make([]byte, n)
	}
	e.buf = e.buf[:n]
	_, err = io.ReadFull(io.NewSectionReader(ds, 0, int64(n)), e.buf)
	return e.buf, err
}

// nextRecord splits the first "key\tvalue\n" record off out.
func nextRecord(out []byte) (key, value, rest []byte, err error) {
	nl := bytes.IndexByte(out, '\n')
	if nl < 0 {
		return nil, nil, nil, fmt.Errorf("unterminated record %q", out)
	}
	line := out[:nl]
	tab := bytes.IndexByte(line, '\t')
	if tab < 0 {
		return nil, nil, nil, fmt.Errorf("record %q has no tab", line)
	}
	return line[:tab], line[tab+1:], out[nl+1:], nil
}

func parseCount(b []byte) (int64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var n int64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = 10*n + int64(c-'0')
	}
	return n, true
}

// checkWordcount requires one record per distinct word, in key order,
// holding the word's count in the input.
func checkWordcount(out []byte, words []wordCount) error {
	for _, w := range words {
		key, val, rest, err := nextRecord(out)
		if err != nil {
			return fmt.Errorf("at word %s: %w", w.word, err)
		}
		n, ok := parseCount(val)
		if string(key) != w.word || !ok || n != w.n {
			return fmt.Errorf("record %s=%s, want %s=%d", key, val, w.word, w.n)
		}
		out = rest
	}
	if len(out) != 0 {
		return fmt.Errorf("%d bytes of records past the last word", len(out))
	}
	return nil
}

// checkSort requires every input token exactly once, in key order.
func checkSort(out []byte, words []wordCount) error {
	for _, w := range words {
		for i := int64(0); i < w.n; i++ {
			key, val, rest, err := nextRecord(out)
			if err != nil {
				return fmt.Errorf("at %s #%d: %w", w.word, i+1, err)
			}
			if string(key) != w.word || len(val) != 0 {
				return fmt.Errorf("record %q, want %s #%d of %d", key, w.word, i+1, w.n)
			}
			out = rest
		}
	}
	if len(out) != 0 {
		return fmt.Errorf("%d bytes of records past the last token", len(out))
	}
	return nil
}

// checkGrep requires the pattern's count of matching lines, or no output
// when no line matches.
func checkGrep(out []byte, pattern string, lines int64) error {
	if lines == 0 {
		if len(out) != 0 {
			return fmt.Errorf("output %q for a pattern no line holds", out)
		}
		return nil
	}
	key, val, rest, err := nextRecord(out)
	if err != nil {
		return err
	}
	n, ok := parseCount(val)
	if string(key) != pattern || !ok || n != lines || len(rest) != 0 {
		return fmt.Errorf("output %q, want %s=%d", out, pattern, lines)
	}
	return nil
}

func (e *engineMix) probe(int, *spanLog) error { return nil }

func (e *engineMix) layers(sp *spanLog, m map[string]float64) {
	for i, app := range engineApps {
		var mapMB, shufMB, redMB, other, si []float64
		var spills float64
		spans := sp.durations(app.span)
		for k, c := range e.tracedCtrs[i] {
			mapMB = append(mapMB, mbPerSec(c.InputBytes, c.MapWall))
			shufMB = append(shufMB, mbPerSec(c.ShuffleBytes, c.ShuffleWall))
			redMB = append(redMB, mbPerSec(c.ShuffleBytes, c.ReduceWall))
			si = append(si, float64(c.ShuffleInputRatio()))
			spills += float64(c.Spills)
			if k < len(spans) {
				phases := c.MapWall + c.ShuffleWall + c.ReduceWall
				other = append(other, float64(spans[k]-phases)/float64(time.Millisecond))
			}
		}
		m["engine.map_mb_s."+app.name] = median(mapMB)
		m["engine.shuffle_mb_s."+app.name] = median(shufMB)
		m["engine.reduce_mb_s."+app.name] = median(redMB)
		m["engine.other_ms."+app.name] = median(other)
		m["engine.shuffle_input_ratio."+app.name] = median(si)
		m["engine.spills."+app.name] = ratio(spills, float64(len(e.tracedCtrs[i])))
		m[app.name+"_mb_s"] = median(e.appMBs[i])
	}
	m["dfsio_mb_s"] = median(e.appMBs[3])
	m["engine.store_write_mb_s"] = median(e.writeMBs)
	m["engine.store_read_mb_s"] = median(e.readMBs)
	m["corpus.gen_ms"] = median(ms(sp.durations("corpus.Generate")))
}
