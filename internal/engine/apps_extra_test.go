package engine

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"testing"

	"hybridmr/internal/units"
)

// Sort produces every input token exactly once, in order.
func TestSortJob(t *testing.T) {
	text := []byte("banana apple\ncherry apple\nbanana date\n")
	store := newOFS(t)
	if err := store.Create("in", text); err != nil {
		t.Fatal(err)
	}
	ctr, err := Run(NewSort(store, "in", "out", 3, 4, 3))
	if err != nil {
		t.Fatal(err)
	}
	if ctr.OutputRecords != 6 {
		t.Errorf("output records = %d, want 6 (duplicates preserved)", ctr.OutputRecords)
	}
	ds, _ := store.Open("out")
	buf := make([]byte, ds.Size())
	if _, err := readFull(ds, buf, 0); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, line := range strings.Split(strings.TrimRight(string(buf), "\n"), "\n") {
		k, _, _ := strings.Cut(line, "\t")
		keys = append(keys, k)
	}
	want := []string{"apple", "apple", "banana", "banana", "cherry", "date"}
	if len(keys) != len(want) {
		t.Fatalf("keys = %v", keys)
	}
	if !sort.StringsAreSorted(keys) {
		t.Errorf("output not sorted: %v", keys)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Errorf("key[%d] = %q, want %q", i, keys[i], want[i])
		}
	}
	// Sort's shuffle carries every token: S/I near 1 for ASCII tokens.
	if r := float64(ctr.ShuffleInputRatio()); r < 0.5 || r > 1.5 {
		t.Errorf("sort S/I = %.2f, want ≈1", r)
	}
}

func TestDFSIOReadRoundTrip(t *testing.T) {
	store := newOFS(t)
	w, err := DFSIOWrite(store, "io", 6, 32*units.KB, 3)
	if err != nil {
		t.Fatal(err)
	}
	r, err := DFSIORead(store, "io", 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Files != w.Files {
		t.Errorf("read %d files, wrote %d", r.Files, w.Files)
	}
	if r.TotalBytes != w.TotalBytes {
		t.Errorf("read %v, wrote %v", r.TotalBytes, w.TotalBytes)
	}
	if r.Throughput <= 0 {
		t.Error("non-positive read throughput")
	}
}

// DFSIORead reads only the files DFSIOWrite named prefix-NNNNN: reading
// "io" back does not pick up another test's "io2" files.
func TestDFSIOReadPrefixIsolation(t *testing.T) {
	store := newOFS(t)
	if _, err := DFSIOWrite(store, "io", 2, 8*units.KB, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := DFSIOWrite(store, "io2", 3, 8*units.KB, 2); err != nil {
		t.Fatal(err)
	}
	r, err := DFSIORead(store, "io", 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Files != 2 || r.TotalBytes != 16*units.KB {
		t.Errorf("read %d files, %v; want 2 files, 16KB", r.Files, r.TotalBytes)
	}
}

// DFSIOWrite's file i holds the byte 'a'+(i+j)%26 at offset j, for sizes
// below, at and past one 26-byte period and past a doubling step.
func TestDFSIOWritePattern(t *testing.T) {
	for _, size := range []units.Bytes{1, 25, 26, 27, 52, 1000, 70000} {
		store := newOFS(t)
		if _, err := DFSIOWrite(store, "io", 3, size, 2); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			got := readAll(t, store, fmt.Sprintf("io-%05d", i))
			want := make([]byte, size)
			for j := range want {
				want[j] = byte('a' + (i+j)%26)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("size %d file %d: pattern differs", size, i)
			}
		}
	}
}

// A file that reads back shorter than its Size fails the read test.
func TestDFSIOReadShortFile(t *testing.T) {
	store := newOFS(t)
	if _, err := DFSIOWrite(store, "io", 2, 100*units.KB, 2); err != nil {
		t.Fatal(err)
	}
	_, err := DFSIORead(shortStore{store, 90 << 10}, "io", 2)
	if !errors.Is(err, io.EOF) {
		t.Errorf("DFSIORead error = %v, want the short read", err)
	}
}

func TestDFSIOReadErrors(t *testing.T) {
	store := newOFS(t)
	if _, err := DFSIORead(store, "nope", 2); err == nil {
		t.Error("missing prefix accepted")
	}
	if _, err := DFSIORead(store, "x", 0); err == nil {
		t.Error("0 slots accepted")
	}
}

func TestTopKReducer(t *testing.T) {
	text := bytes.Repeat([]byte("common word\n"), 50)
	text = append(text, []byte("rare token\n")...)
	store := newOFS(t)
	if err := store.Create("in", text); err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Name:        "topk",
		Store:       store,
		Input:       "in",
		Output:      "out",
		Mapper:      TopKMapper{},
		Reducer:     TopKReducer{MinCount: 10},
		Combiner:    SumReducer{},
		Reducers:    2,
		MapSlots:    4,
		ReduceSlots: 2,
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
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
	if out["common"] != "50" || out["word"] != "50" {
		t.Errorf("frequent words missing: %v", out)
	}
	if _, ok := out["rare"]; ok {
		t.Error("rare word not filtered")
	}
	if err := (TopKReducer{MinCount: 1}).Reduce("k", []string{"zzz"}, func(string, string) {}); err == nil {
		t.Error("bad count accepted")
	}
}

// Identity reducer preserves values verbatim.
func TestIdentityReducer(t *testing.T) {
	var got []string
	err := IdentityReducer{}.Reduce("k", []string{"a", "b", "a"}, func(k, v string) {
		got = append(got, k+"="+v)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != "k=a" || got[1] != "k=b" || got[2] != "k=a" {
		t.Errorf("identity output = %v", got)
	}
}
