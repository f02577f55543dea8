package engine

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"hybridmr/internal/units"
)

// WordcountMapper emits (word, "1") for every whitespace-separated token —
// the paper's shuffle-intensive Wordcount (§III-A).
type WordcountMapper struct{}

// Map implements Mapper.
func (WordcountMapper) Map(line string, emit func(k, v string)) error {
	eachField(line, func(w string) { emit(w, "1") })
	return nil
}

// eachField calls fn with every whitespace-separated field of s, in order:
// exactly the fields strings.Fields returns, but as substrings of s and
// without building a slice. ASCII text takes the byte-scanning fast path;
// from the field holding the first byte ≥ 0x80 on, the rest of s goes
// through strings.Fields, whose Unicode whitespace rules then apply.
//
//simlint:hotpath
func eachField(s string, fn func(string)) {
	start := -1 // start of the current field, -1 between fields
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= utf8.RuneSelf {
			if start < 0 {
				start = i
			}
			for _, f := range strings.Fields(s[start:]) { //simlint:allow hotalloc non-ASCII lines only; the ASCII fast path allocates nothing
				fn(f)
			}
			return
		}
		if asciiSpace[c] {
			if start >= 0 {
				fn(s[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		fn(s[start:])
	}
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// SumReducer adds integer values; it doubles as Wordcount's combiner.
type SumReducer struct{}

// Reduce implements Reducer.
func (SumReducer) Reduce(key string, values []string, emit func(k, v string)) error {
	total := int64(0)
	for _, v := range values {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return fmt.Errorf("engine: sum reducer: %q: %w", v, err)
		}
		total += n
	}
	emit(key, strconv.FormatInt(total, 10))
	return nil
}

// NewWordcount returns the Wordcount job configuration.
func NewWordcount(store BlockStore, input, output string, reducers, mapSlots, reduceSlots int) Config {
	return Config{
		Name:        "wordcount",
		Store:       store,
		Input:       input,
		Output:      output,
		Mapper:      WordcountMapper{},
		Reducer:     SumReducer{},
		Combiner:    SumReducer{},
		Reducers:    reducers,
		MapSlots:    mapSlots,
		ReduceSlots: reduceSlots,
	}
}

// GrepMapper emits (pattern, "1") per matching line — the paper's Grep,
// whose shuffle is the match set (§III-A).
type GrepMapper struct {
	re *regexp.Regexp
}

// NewGrepMapper compiles the pattern.
func NewGrepMapper(pattern string) (*GrepMapper, error) {
	re, err := regexp.Compile(pattern)
	if err != nil {
		return nil, fmt.Errorf("engine: grep: %w", err)
	}
	return &GrepMapper{re: re}, nil
}

// Map implements Mapper. The emitted key is the match, a substring of
// the line.
func (g *GrepMapper) Map(line string, emit func(k, v string)) error {
	if loc := g.re.FindStringIndex(line); loc != nil {
		emit(line[loc[0]:loc[1]], "1")
	}
	return nil
}

// NewGrep returns the Grep job configuration.
func NewGrep(store BlockStore, input, output, pattern string, reducers, mapSlots, reduceSlots int) (Config, error) {
	m, err := NewGrepMapper(pattern)
	if err != nil {
		return Config{}, err
	}
	return Config{
		Name:        "grep",
		Store:       store,
		Input:       input,
		Output:      output,
		Mapper:      m,
		Reducer:     SumReducer{},
		Combiner:    SumReducer{},
		Reducers:    reducers,
		MapSlots:    mapSlots,
		ReduceSlots: reduceSlots,
	}, nil
}

// DFSIOResult reports a write test's outcome.
type DFSIOResult struct {
	Files      int
	FileSize   units.Bytes
	TotalBytes units.Bytes
	Wall       time.Duration
	Throughput units.BytesPerSec
}

// DFSIOWrite runs the TestDFSIO write test against a store: `files` map
// "tasks" (bounded by mapSlots workers) each generate and store one file of
// fileSize bytes, and the aggregated statistics are the single reducer's
// output — exactly the shape the paper describes in §III-C.
func DFSIOWrite(store BlockStore, prefix string, files int, fileSize units.Bytes, mapSlots int) (DFSIOResult, error) {
	if files < 1 {
		return DFSIOResult{}, fmt.Errorf("engine: dfsio: %d files", files)
	}
	if fileSize <= 0 {
		return DFSIOResult{}, fmt.Errorf("engine: dfsio: file size %d", fileSize)
	}
	if mapSlots < 1 {
		return DFSIOResult{}, fmt.Errorf("engine: dfsio: %d slots", mapSlots)
	}
	start := time.Now() //simlint:allow walltime DFSIO measures real I/O wall time by definition
	sem := make(chan struct{}, mapSlots)
	var wg sync.WaitGroup
	var firstErr errOnce
	for i := 0; i < files; i++ {
		i := i
		wg.Add(1)
		sem <- struct{}{}
		go func() { //simlint:allow locksafe real execution: slot-bounded writer pool, joined before results are read
			defer wg.Done()
			defer func() { <-sem }()
			// A cheap deterministic fill: the 26-byte period
			// 'a'+(i+j)%26, doubled by copying. TestDFSIO writes a
			// repeating pattern too.
			data := make([]byte, fileSize)
			for j := range data[:min(len(data), 26)] {
				data[j] = byte('a' + (i+j)%26)
			}
			for n := 26; n < len(data); n *= 2 {
				copy(data[n:], data[:n])
			}
			if err := store.Create(fmt.Sprintf("%s-%05d", prefix, i), data); err != nil {
				firstErr.set(err)
			}
		}()
	}
	wg.Wait()
	if err := firstErr.get(); err != nil {
		return DFSIOResult{}, err
	}
	wall := time.Since(start) //simlint:allow walltime DFSIO measures real I/O wall time by definition
	total := units.Bytes(files) * fileSize
	res := DFSIOResult{Files: files, FileSize: fileSize, TotalBytes: total, Wall: wall}
	if wall > 0 {
		res.Throughput = units.BytesPerSec(float64(total) / wall.Seconds())
	}
	return res, nil
}
