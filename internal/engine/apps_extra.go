package engine

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hybridmr/internal/units"
)

// SortMapper emits (token, "") for every token: with the identity reducer
// this implements a distributed sort, the S/I ≈ 1 workload between Grep and
// Wordcount in the scheduler's ratio bands.
type SortMapper struct{}

// Map implements Mapper.
func (SortMapper) Map(line string, emit func(k, v string)) error {
	eachField(line, func(w string) { emit(w, "") })
	return nil
}

// IdentityReducer re-emits every (key, value) pair unchanged; the engine's
// sort-merge step provides the ordering.
type IdentityReducer struct{}

// Reduce implements Reducer.
func (IdentityReducer) Reduce(key string, values []string, emit func(k, v string)) error {
	for _, v := range values {
		emit(key, v)
	}
	return nil
}

// NewSort returns the distributed-sort job configuration. It runs without a
// combiner (sorting preserves duplicates).
func NewSort(store BlockStore, input, output string, reducers, mapSlots, reduceSlots int) Config {
	return Config{
		Name:        "sort",
		Store:       store,
		Input:       input,
		Output:      output,
		Mapper:      SortMapper{},
		Reducer:     IdentityReducer{},
		Reducers:    reducers,
		MapSlots:    mapSlots,
		ReduceSlots: reduceSlots,
	}
}

// DFSIORead runs the TestDFSIO read test: every file written by a prior
// DFSIOWrite with the same prefix (named prefix-NNNNN) is read back in full
// by one map "task", and the aggregate throughput is reported. mapSlots
// workers each stream their files through one reused chunk buffer.
func DFSIORead(store BlockStore, prefix string, mapSlots int) (DFSIOResult, error) {
	if mapSlots < 1 {
		return DFSIOResult{}, fmt.Errorf("engine: dfsio-read: %d slots", mapSlots)
	}
	var names []string
	for _, n := range store.List() {
		if strings.HasPrefix(n, prefix+"-") {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return DFSIOResult{}, fmt.Errorf("engine: dfsio-read: no files with prefix %q", prefix)
	}
	start := time.Now() //simlint:allow walltime DFSIO measures real I/O wall time by definition
	var wg sync.WaitGroup
	var firstErr errOnce
	var next, total, fileSize atomic.Int64
	for w := 0; w < min(mapSlots, len(names)); w++ {
		wg.Add(1)
		go func() { //simlint:allow locksafe real execution: slot-bounded reader pool, joined before results are read
			defer wg.Done()
			buf := make([]byte, dfsioChunk)
			for i := next.Add(1) - 1; i < int64(len(names)); i = next.Add(1) - 1 {
				size, err := dfsioReadFile(store, names[i], buf)
				if err != nil {
					firstErr.set(err)
					return
				}
				total.Add(int64(size))
				fileSize.Store(int64(size))
			}
		}()
	}
	wg.Wait()
	if err := firstErr.get(); err != nil {
		return DFSIOResult{}, err
	}
	wall := time.Since(start) //simlint:allow walltime DFSIO measures real I/O wall time by definition
	res := DFSIOResult{Files: len(names), FileSize: units.Bytes(fileSize.Load()), TotalBytes: units.Bytes(total.Load()), Wall: wall}
	if wall > 0 {
		res.Throughput = units.BytesPerSec(float64(total.Load()) / wall.Seconds())
	}
	return res, nil
}

// dfsioChunk is the size of each DFSIORead worker's read buffer.
const dfsioChunk = 64 << 10

// dfsioReadFile streams one file through buf, touching every byte so the
// read cannot be elided, and returns the file's size.
func dfsioReadFile(store BlockStore, name string, buf []byte) (units.Bytes, error) {
	ds, err := store.Open(name)
	if err != nil {
		return 0, err
	}
	size := int64(ds.Size())
	var sum byte
	for off := int64(0); off < size; {
		chunk := buf[:min(int64(len(buf)), size-off)]
		if _, err := readFull(ds, chunk, off); err != nil {
			return 0, fmt.Errorf("engine: dfsio-read %s: %w", name, err)
		}
		for _, c := range chunk {
			sum ^= c
		}
		off += int64(len(chunk))
	}
	_ = sum
	return ds.Size(), nil
}

// TopKMapper emits (word, count-of-1) like Wordcount; combined with
// TopKReducer it produces the k most frequent words — a second-stage job
// often chained after Wordcount in production pipelines.
type TopKMapper = WordcountMapper

// TopKReducer keeps only keys whose summed count reaches the threshold —
// a selective reducer exercising emit-filtering.
type TopKReducer struct {
	// MinCount filters the output to words at least this frequent.
	MinCount int64
}

// Reduce implements Reducer.
func (r TopKReducer) Reduce(key string, values []string, emit func(k, v string)) error {
	var total int64
	for _, v := range values {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return fmt.Errorf("engine: topk reducer: %q: %w", v, err)
		}
		total += n
	}
	if total >= r.MinCount {
		emit(key, strconv.FormatInt(total, 10))
	}
	return nil
}
