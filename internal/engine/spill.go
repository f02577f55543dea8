package engine

import (
	"fmt"
	"slices"
	"strings"
)

// Map-side spill: Hadoop buffers map output in a bounded in-memory buffer
// (io.sort.mb) and, when it fills, sorts, combines and spills a segment;
// the segments are merged at the end of the task. The engine reproduces
// that path when Config.SortBufferRecords is set, so memory stays bounded
// for arbitrarily large map outputs — and so the spill/merge machinery the
// paper's heap-size tuning (§II-D) is about actually exists in the
// functional substrate. An unbounded buffer is the same path with a single
// spill at task end.
//
// Each record is sorted once, in its spill: the buffer groups values by
// key in a hash index, so a spill sorts only the distinct keys and each
// key's values, which yields cmpKV order with or without a combiner. Every
// later step — the task-end merge of segments, the reduce-side merge of
// task runs and the merge of reducer outputs — merges sorted runs in cmpKV
// order. Output emitted by a combiner or reducer is checked and sorted only
// when it is out of order.

// kv is one intermediate pair.
type kv struct{ k, v string }

// cmpKV is the engine's one sort order: by key, then by value.
func cmpKV(a, b kv) int {
	if c := strings.Compare(a.k, b.k); c != 0 {
		return c
	}
	return strings.Compare(a.v, b.v)
}

// ensureSorted sorts a run emitted by user code unless it already is in
// cmpKV order — the fallback for combiners and reducers that emit keys
// other than their group key.
func ensureSorted(run []kv) {
	if !slices.IsSortedFunc(run, cmpKV) {
		slices.SortFunc(run, cmpKV)
	}
}

// keyGroup is one distinct key of a spill buffer; after the counting pass
// in spill, its values are byKey[lo:hi].
type keyGroup struct {
	key    string
	lo, hi int32
}

// spillBuffer accumulates one map task's output under a record bound
// (0 = unbounded), grouping values per key in a reused hash index: gids[i]
// is the group of the i-th buffered value.
type spillBuffer struct {
	bound    int
	combiner Reducer

	index  map[string]int32
	groups []keyGroup
	gids   []int32
	vals   []string
	byKey  []string

	segments [][]kv
	spills   int
}

func newSpillBuffer(bound int, combiner Reducer) *spillBuffer {
	// Buffers start small and grow to the bound at most, so a task that
	// emits little (Grep) allocates little.
	size := 1024
	if bound > 0 && bound < size {
		size = bound
	}
	return &spillBuffer{
		bound: bound, combiner: combiner,
		index: make(map[string]int32),
		gids:  make([]int32, 0, size),
		vals:  make([]string, 0, size),
	}
}

// add buffers one pair, spilling when the buffer is full.
//
//simlint:hotpath
func (s *spillBuffer) add(p kv) error {
	g, ok := s.index[p.k]
	if !ok {
		g = int32(len(s.groups))
		s.index[p.k] = g
		s.groups = append(s.groups, keyGroup{key: p.k})
	}
	s.groups[g].hi++ // counts values until spill turns counts into bounds
	s.gids = append(s.gids, g)
	s.vals = append(s.vals, p.v)
	if s.bound > 0 && len(s.vals) >= s.bound {
		return s.spill()
	}
	return nil
}

// spill counting-sorts the buffered values by group, sorts the distinct
// keys and each key's values, and appends the result as a new segment:
// without a combiner every group's values in key order, which is cmpKV
// order; with one the combiner's output per key. It then resets the index
// for the next spill. Only a bounded buffer counts its spills, as Hadoop's
// counter does.
func (s *spillBuffer) spill() error {
	if len(s.vals) == 0 {
		return nil
	}
	var off int32
	for i := range s.groups {
		g := &s.groups[i]
		g.lo, g.hi, off = off, off, off+g.hi
	}
	s.byKey = slices.Grow(s.byKey[:0], len(s.vals))[:len(s.vals)]
	for i, g := range s.gids {
		s.byKey[s.groups[g].hi] = s.vals[i]
		s.groups[g].hi++
	}
	slices.SortFunc(s.groups, func(a, b keyGroup) int { return strings.Compare(a.key, b.key) })
	size := len(s.groups)
	if s.combiner == nil {
		size = len(s.vals)
	}
	seg := make([]kv, 0, size)
	emit := func(k, v string) { seg = append(seg, kv{k, v}) }
	for _, g := range s.groups {
		vals := s.byKey[g.lo:g.hi:g.hi]
		slices.Sort(vals)
		if s.combiner == nil {
			for _, v := range vals {
				seg = append(seg, kv{g.key, v})
			}
		} else if err := s.combiner.Reduce(g.key, vals, emit); err != nil {
			return err
		}
	}
	if s.combiner != nil {
		ensureSorted(seg)
	}
	s.segments = append(s.segments, seg)
	if s.bound > 0 {
		s.spills++
	}
	clear(s.index)
	s.groups, s.gids, s.vals = s.groups[:0], s.gids[:0], s.vals[:0]
	return nil
}

// drain finishes the task: a final spill, then a k-way merge of all
// segments with a last combine across segment boundaries. The result is
// sorted.
func (s *spillBuffer) drain() ([]kv, error) {
	if err := s.spill(); err != nil {
		return nil, err
	}
	switch {
	case len(s.segments) == 0:
		return nil, nil
	case len(s.segments) == 1:
		return s.segments[0], nil
	case s.combiner == nil:
		return mergeRuns(s.segments), nil
	}
	// Equal keys from different segments meet in the merge; one more
	// combine collapses them.
	return reduceRuns(s.segments, s.combiner)
}

// merger streams the k-way merge of sorted runs in cmpKV order: a binary
// min-heap of the runs' unconsumed tails, ordered by their heads.
type merger [][]kv

func newMerger(runs [][]kv) merger {
	m := make(merger, 0, len(runs))
	for _, r := range runs {
		if len(r) > 0 {
			m = append(m, r)
		}
	}
	for i := len(m)/2 - 1; i >= 0; i-- {
		m.down(i)
	}
	return m
}

// next pops the smallest head pair; ok is false once every run is drained.
func (m *merger) next() (p kv, ok bool) {
	h := *m
	if len(h) == 0 {
		return kv{}, false
	}
	p = h[0][0]
	if h[0] = h[0][1:]; len(h[0]) == 0 {
		last := len(h) - 1
		h[0], h[last] = h[last], nil
		h = h[:last]
		*m = h
	}
	h.down(0)
	return p, true
}

func (m merger) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(m) {
			return
		}
		if r := c + 1; r < len(m) && cmpKV(m[r][0], m[c][0]) < 0 {
			c = r
		}
		if cmpKV(m[c][0], m[i][0]) >= 0 {
			return
		}
		m[i], m[c] = m[c], m[i]
		i = c
	}
}

// mergeRuns merges sorted runs into one sorted run.
func mergeRuns(runs [][]kv) []kv {
	total := 0
	for _, r := range runs {
		total += len(r)
	}
	out := make([]kv, 0, total)
	m := newMerger(runs)
	for p, ok := m.next(); ok; p, ok = m.next() {
		out = append(out, p)
	}
	return out
}

// reduceRuns k-way merges sorted runs, streams each key group to r with
// one reused values slice, and returns r's output sorted.
func reduceRuns(runs [][]kv, r Reducer) ([]kv, error) {
	total := 0
	for _, run := range runs {
		total += len(run)
	}
	out := make([]kv, 0, total) // exact for an identity reducer
	emit := func(k, v string) { out = append(out, kv{k, v}) }
	var vals []string
	m := newMerger(runs)
	p, ok := m.next()
	for ok {
		key := p.k
		vals = vals[:0]
		for ok && p.k == key {
			vals = append(vals, p.v)
			p, ok = m.next()
		}
		if err := r.Reduce(key, vals, emit); err != nil {
			return nil, fmt.Errorf("key %q: %w", key, err)
		}
	}
	ensureSorted(out)
	return out, nil
}

// partitionRuns splits a sorted run into exactly-sized per-reducer runs;
// each stays sorted, being a subsequence of a sorted run. The partitioner
// is a function of the key, so it runs once per distinct key.
func partitionRuns(sorted []kv, part Partitioner, n int) ([][]kv, error) {
	runs := make([][]kv, n)
	ids := make([]int32, len(sorted))
	counts := make([]int, n)
	r := 0
	for i, p := range sorted {
		if i == 0 || p.k != sorted[i-1].k {
			if r = part(p.k, n); r < 0 || r >= n {
				return nil, fmt.Errorf("partitioner returned %d of %d", r, n)
			}
		}
		ids[i] = int32(r)
		counts[r]++
	}
	backing := make([]kv, len(sorted))
	off := 0
	for r, c := range counts {
		runs[r] = backing[off : off : off+c]
		off += c
	}
	for i, p := range sorted {
		runs[ids[i]] = append(runs[ids[i]], p)
	}
	return runs, nil
}
