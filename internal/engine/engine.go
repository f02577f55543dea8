package engine

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hybridmr/internal/units"
)

// Mapper transforms one input record (a line) into key/value pairs.
type Mapper interface {
	// Map processes one line; emit may be called any number of times.
	// The line is a substring of the task's input split, which the engine
	// reads once into one string: substrings of line may be emitted as
	// keys or values without copying.
	Map(line string, emit func(key, value string)) error
}

// Reducer folds all values of one key into output pairs. A Reducer may also
// serve as the combiner, Hadoop-style, when its operation is associative.
// Keys arrive in ascending order, and each key's values arrive in
// ascending order too; the values slice is reused by the engine and is
// valid only for the duration of the call.
type Reducer interface {
	Reduce(key string, values []string, emit func(key, value string)) error
}

// Partitioner assigns a key to one of n reduce partitions.
type Partitioner func(key string, n int) int

// HashPartitioner is Hadoop's default: hash the key modulo the partitions.
// The hash is 32-bit FNV-1a (hash/fnv's New32a), computed inline so that
// partitioning a record allocates nothing.
func HashPartitioner(key string, n int) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return int(h % uint32(n))
}

// Config describes one engine job.
type Config struct {
	// Name labels the job in errors.
	Name string
	// Store holds the input and receives the output.
	Store BlockStore
	// Input is the dataset name to read.
	Input string
	// Output is the dataset name to create with the reduce output
	// ("key\tvalue" lines, sorted by key; records with equal keys are
	// ordered by value). Empty discards the output.
	Output string
	// Mapper and Reducer implement the application.
	Mapper  Mapper
	Reducer Reducer
	// Combiner, when non-nil, pre-aggregates map output per task.
	Combiner Reducer
	// Partitioner routes keys to reducers; nil uses HashPartitioner.
	Partitioner Partitioner
	// Reducers is the reduce-partition count (≥ 1).
	Reducers int
	// MapSlots and ReduceSlots bound task concurrency, like the paper's
	// per-machine slot settings (§II-D).
	MapSlots, ReduceSlots int
	// SortBufferRecords bounds each map task's in-memory output buffer
	// (Hadoop's io.sort.mb, in records): a full buffer is sorted,
	// combined and spilled to a segment, and the segments are merged at
	// task end. 0 keeps everything in one buffer.
	SortBufferRecords int
}

// Counters reports what a job did, mirroring Hadoop's job counters and the
// paper's measured quantities (input, shuffle and output sizes, per-phase
// durations).
type Counters struct {
	InputBytes       units.Bytes
	InputRecords     int64
	MapTasks         int
	MapOutputRecords int64
	ShuffleBytes     units.Bytes
	OutputRecords    int64
	OutputBytes      units.Bytes
	// Spills counts map-side buffer spills (Hadoop's "Spilled Records"
	// cousin); nonzero only when SortBufferRecords bounds the buffer.
	Spills      int64
	MapWall     time.Duration
	ShuffleWall time.Duration
	ReduceWall  time.Duration
}

// ShuffleInputRatio returns the measured shuffle/input ratio — the quantity
// the paper's Algorithm 1 takes as input from earlier runs of the job.
func (c Counters) ShuffleInputRatio() units.Ratio {
	if c.InputBytes == 0 {
		return 0
	}
	return units.Ratio(float64(c.ShuffleBytes) / float64(c.InputBytes))
}

func (cfg *Config) validate() error {
	switch {
	case cfg.Store == nil:
		return fmt.Errorf("engine: job %s: no store", cfg.Name)
	case cfg.Input == "":
		return fmt.Errorf("engine: job %s: no input", cfg.Name)
	case cfg.Mapper == nil:
		return fmt.Errorf("engine: job %s: no mapper", cfg.Name)
	case cfg.Reducer == nil:
		return fmt.Errorf("engine: job %s: no reducer", cfg.Name)
	case cfg.Reducers < 1:
		return fmt.Errorf("engine: job %s: %d reducers", cfg.Name, cfg.Reducers)
	case cfg.MapSlots < 1 || cfg.ReduceSlots < 1:
		return fmt.Errorf("engine: job %s: non-positive slots", cfg.Name)
	case cfg.SortBufferRecords < 0:
		return fmt.Errorf("engine: job %s: negative sort buffer", cfg.Name)
	}
	return nil
}

// errOnce records the first error reported by any worker.
type errOnce struct {
	mu  sync.Mutex
	err error
}

func (e *errOnce) set(err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err == nil {
		e.err = err
	}
}

func (e *errOnce) get() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// Run executes the job: line-aligned splits per block, a map worker pool of
// MapSlots, per-task sorting and combining, hash partitioning into Reducers
// sorted runs per task, and a reduce worker pool of ReduceSlots that merges
// each partition's runs.
func Run(cfg Config) (Counters, error) {
	if err := cfg.validate(); err != nil {
		return Counters{}, err
	}
	part := cfg.Partitioner
	if part == nil {
		part = HashPartitioner
	}
	ds, err := cfg.Store.Open(cfg.Input)
	if err != nil {
		return Counters{}, err
	}

	var ctr Counters
	ctr.InputBytes = ds.Size()
	ctr.MapTasks = ds.NumBlocks()
	if ctr.MapTasks == 0 {
		return Counters{}, fmt.Errorf("engine: job %s: empty input", cfg.Name)
	}

	// ---- Map phase ----
	mapStart := time.Now() //simlint:allow walltime Counters report the real engine's measured wall time, not sim time
	// partitions[task][r] collects task-local output per reduce partition.
	partitions := make([][][]kv, ctr.MapTasks)
	var inputRecords, mapRecords, spills int64
	var firstErr errOnce
	sem := make(chan struct{}, cfg.MapSlots)
	var wg sync.WaitGroup
	for task := 0; task < ctr.MapTasks; task++ {
		task := task
		wg.Add(1)
		sem <- struct{}{}
		go func() { //simlint:allow locksafe real execution: map-slot-bounded worker pool, joined before any result is read
			defer wg.Done()
			defer func() { <-sem }()
			out, nIn, nOut, nSpill, err := runMapTask(cfg, ds, task, part)
			if err != nil {
				firstErr.set(err)
				return
			}
			partitions[task] = out
			atomic.AddInt64(&inputRecords, nIn)
			atomic.AddInt64(&mapRecords, nOut)
			atomic.AddInt64(&spills, nSpill)
		}()
	}
	wg.Wait()
	if err := firstErr.get(); err != nil {
		return Counters{}, err
	}
	ctr.InputRecords = inputRecords
	ctr.MapOutputRecords = mapRecords
	ctr.Spills = spills
	ctr.MapWall = time.Since(mapStart) //simlint:allow walltime Counters report the real engine's measured wall time, not sim time

	// ---- Shuffle: hand each reducer its sorted task runs ----
	shuffleStart := time.Now() //simlint:allow walltime Counters report the real engine's measured wall time, not sim time
	byReducer := make([][][]kv, cfg.Reducers)
	var shuffleBytes int64
	for _, taskOut := range partitions {
		for r, run := range taskOut {
			if len(run) > 0 {
				byReducer[r] = append(byReducer[r], run)
			}
			for _, p := range run {
				shuffleBytes += int64(len(p.k) + len(p.v))
			}
		}
	}
	ctr.ShuffleBytes = units.Bytes(shuffleBytes)
	ctr.ShuffleWall = time.Since(shuffleStart) //simlint:allow walltime Counters report the real engine's measured wall time, not sim time

	// ---- Reduce phase ----
	reduceStart := time.Now() //simlint:allow walltime Counters report the real engine's measured wall time, not sim time
	results := make([][]kv, cfg.Reducers)
	var outRecords int64
	sem = make(chan struct{}, cfg.ReduceSlots)
	for r := 0; r < cfg.Reducers; r++ {
		r := r
		wg.Add(1)
		sem <- struct{}{}
		go func() { //simlint:allow locksafe real execution: reduce-slot-bounded worker pool, joined before any result is read
			defer wg.Done()
			defer func() { <-sem }()
			out, err := runReduceTask(cfg, byReducer[r])
			if err != nil {
				firstErr.set(err)
				return
			}
			results[r] = out
			atomic.AddInt64(&outRecords, int64(len(out)))
		}()
	}
	wg.Wait()
	if err := firstErr.get(); err != nil {
		return Counters{}, err
	}
	ctr.OutputRecords = outRecords
	ctr.ReduceWall = time.Since(reduceStart) //simlint:allow walltime Counters report the real engine's measured wall time, not sim time

	// ---- Output: merge the sorted reducer outputs ----
	size := 0
	for _, out := range results {
		for _, p := range out {
			size += len(p.k) + len(p.v) + 2
		}
	}
	ctr.OutputBytes = units.Bytes(size)
	if cfg.Output != "" {
		buf := make([]byte, 0, size)
		m := newMerger(results)
		for p, ok := m.next(); ok; p, ok = m.next() {
			buf = append(buf, p.k...)
			buf = append(buf, '\t')
			buf = append(buf, p.v...)
			buf = append(buf, '\n')
		}
		if err := cfg.Store.Create(cfg.Output, buf); err != nil {
			return Counters{}, err
		}
	}
	return ctr, nil
}

// runMapTask processes the line-aligned split of one block: like Hadoop's
// TextInputFormat, a task owns every line that *starts* within its block,
// reading past the block end to finish the last line. It returns the
// task's output as one sorted run per reduce partition.
func runMapTask(cfg Config, ds Dataset, task int, part Partitioner) (out [][]kv, nIn, nOut, nSpill int64, err error) {
	split, err := readSplit(ds, task)
	if err != nil {
		return nil, 0, 0, 0, fmt.Errorf("engine: job %s task %d: %w", cfg.Name, task, err)
	}
	sb := newSpillBuffer(cfg.SortBufferRecords, cfg.Combiner)
	var emitErr error
	emit := func(k, v string) {
		nOut++
		if emitErr == nil {
			emitErr = sb.add(kv{k, v})
		}
	}
	for len(split) > 0 {
		nl := strings.IndexByte(split, '\n')
		var line string
		if nl < 0 {
			line, split = split, ""
		} else {
			line, split = split[:nl], split[nl+1:]
		}
		if len(line) == 0 {
			continue
		}
		nIn++
		if err := cfg.Mapper.Map(line, emit); err != nil {
			return nil, 0, 0, 0, fmt.Errorf("engine: job %s task %d: %w", cfg.Name, task, err)
		}
		if emitErr != nil {
			return nil, 0, 0, 0, fmt.Errorf("engine: job %s task %d spill: %w", cfg.Name, task, emitErr)
		}
	}
	sorted, err := sb.drain()
	if err != nil {
		return nil, 0, 0, 0, fmt.Errorf("engine: job %s task %d merge: %w", cfg.Name, task, err)
	}
	if out, err = partitionRuns(sorted, part, cfg.Reducers); err != nil {
		return nil, 0, 0, 0, fmt.Errorf("engine: job %s: %w", cfg.Name, err)
	}
	return out, nIn, nOut, int64(sb.spills), nil
}

// readSplit returns the task's line-aligned split, read once into one
// string. A dataset that serves fewer bytes than its Size reports fails
// with io.ErrUnexpectedEOF.
func readSplit(ds Dataset, task int) (string, error) {
	block := int64(ds.BlockSize())
	size := int64(ds.Size())
	start := int64(task) * block
	end := start + block
	if end > size {
		end = size
	}
	// Skip the partial first line (owned by the previous task), except in
	// the first block.
	if task > 0 {
		off, err := nextLineStart(ds, start-1)
		if err != nil {
			return "", err
		}
		start = off
	}
	// Extend past the block boundary to the end of the last line.
	if end < size {
		off, err := nextLineStart(ds, end-1)
		if err != nil {
			return "", err
		}
		end = off
	}
	if start >= end {
		return "", nil
	}
	var sb strings.Builder
	sb.Grow(int(end - start))
	n, err := io.Copy(&sb, io.NewSectionReader(ds, start, end-start))
	if err != nil {
		return "", err
	}
	if n < end-start {
		return "", fmt.Errorf("split [%d, %d) read %d bytes: %w", start, end, n, io.ErrUnexpectedEOF)
	}
	return sb.String(), nil
}

// nextLineStart returns the offset just past the first newline at or after
// off (or the dataset end). Only io.EOF ends the data early; any other read
// error is returned.
func nextLineStart(ds Dataset, off int64) (int64, error) {
	size := int64(ds.Size())
	buf := make([]byte, 4096)
	for off < size {
		n, err := ds.ReadAt(buf, off)
		if i := bytes.IndexByte(buf[:n], '\n'); i >= 0 {
			return off + int64(i) + 1, nil
		}
		off += int64(n)
		switch {
		case errors.Is(err, io.EOF):
			return size, nil
		case err != nil:
			return 0, err
		case n == 0:
			return 0, io.ErrNoProgress
		}
	}
	return size, nil
}

func readFull(ds Dataset, p []byte, off int64) (int, error) {
	total := 0
	for total < len(p) {
		n, err := ds.ReadAt(p[total:], off+int64(total))
		total += n
		if err != nil {
			if total == len(p) {
				break
			}
			return total, err
		}
	}
	return total, nil
}

// runReduceTask merges one partition's sorted task runs and reduces them.
func runReduceTask(cfg Config, runs [][]kv) ([]kv, error) {
	out, err := reduceRuns(runs, cfg.Reducer)
	if err != nil {
		return nil, fmt.Errorf("engine: job %s reduce: %w", cfg.Name, err)
	}
	return out, nil
}

// ParseOutput parses an engine output dataset ("key\tvalue" lines) into a
// map, for tests and examples.
func ParseOutput(data []byte) (map[string]string, error) {
	out := make(map[string]string)
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" {
			continue
		}
		k, v, ok := strings.Cut(line, "\t")
		if !ok {
			return nil, fmt.Errorf("engine: malformed output line %q", line)
		}
		out[k] = v
	}
	return out, nil
}
