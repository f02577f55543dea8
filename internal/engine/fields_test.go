package engine

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// fieldPieces are the fragments randomLine draws from: ASCII words, every
// ASCII whitespace byte, the Unicode spaces U+00A0, U+0085 and U+3000, a
// non-space multibyte rune, and invalid UTF-8 (a stray continuation byte,
// 0xff, and truncated encodings of U+00A0 and U+3000).
var fieldPieces = []string{
	"a", "bb", "word", "w0042", "x",
	" ", "\t", "\n", "\v", "\f", "\r", "  ",
	"\u00a0", "\u0085", "\u3000", "\u00e9",
	"\x80", "\xff", "\xc2", "\xe3\x80",
}

func randomLine(rng *rand.Rand) string {
	var b strings.Builder
	for n := rng.Intn(16); n > 0; n-- {
		b.WriteString(fieldPieces[rng.Intn(len(fieldPieces))])
	}
	return b.String()
}

func fieldsOf(s string) []string {
	var got []string
	eachField(s, func(f string) { got = append(got, f) })
	return got
}

// Property: eachField yields exactly strings.Fields, on random mixes of
// ASCII words, ASCII and Unicode whitespace and invalid UTF-8, and on
// arbitrary strings.
func TestEachFieldMatchesStringsFields(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		s := randomLine(rng)
		if got, want := fieldsOf(s), strings.Fields(s); !slices.Equal(got, want) {
			t.Fatalf("eachField(%q) = %q, want %q", s, got, want)
		}
	}
	f := func(s string) bool { return slices.Equal(fieldsOf(s), strings.Fields(s)) }
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// WordcountMapper and SortMapper emit one pair per bytes.Fields token, in
// order, with their constant values.
func TestMappersMatchBytesFields(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, m := range []struct {
		mapper Mapper
		value  string
	}{{WordcountMapper{}, "1"}, {SortMapper{}, ""}} {
		for i := 0; i < 5000; i++ {
			line := randomLine(rng)
			var want []kv
			for _, w := range bytes.Fields([]byte(line)) {
				want = append(want, kv{string(w), m.value})
			}
			var got []kv
			if err := m.mapper.Map(line, func(k, v string) { got = append(got, kv{k, v}) }); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%T.Map(%q) = %q, want %q", m.mapper, line, got, want)
			}
		}
	}
}

// A warm Wordcount line whose keys are already in the spill buffer's index
// maps and buffers without allocating: the field scan yields substrings of
// the line, and the index, group and value slices are reused.
func TestMapLineSteadyStateAllocs(t *testing.T) {
	sb := newSpillBuffer(0, SumReducer{})
	emit := func(k, v string) {
		if err := sb.add(kv{k, v}); err != nil {
			t.Fatal(err)
		}
	}
	var m Mapper = WordcountMapper{}
	line := "the quick brown fox\tjumps over the lazy dog "
	if err := m.Map(line, emit); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		sb.gids, sb.vals = sb.gids[:0], sb.vals[:0]
		_ = m.Map(line, emit)
	})
	if allocs != 0 {
		t.Errorf("warm Wordcount line: %.1f allocs, want 0", allocs)
	}
	if len(sb.index) != 8 {
		t.Errorf("index holds %d keys, want 8", len(sb.index))
	}
}
