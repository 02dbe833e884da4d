package dataset

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParseLibSVM hardens the text parser: arbitrary input must either
// parse into a structurally valid dataset or return an error — never
// panic, and round-trip losslessly when it does parse.
func FuzzParseLibSVM(f *testing.F) {
	seeds := []string{
		"+1 0:1 2:0.5\n-1 1:2\n",
		"",
		"# only a comment\n",
		"1\n",                         // label, no features
		"1 0:0\n",                     // explicit zero
		"-1 5:1e-300\n",               // tiny value
		"2.5 3:4.25\n",                // regression label
		"1 0:1 0:2\n",                 // duplicate index
		"x 0:1\n",                     // bad label
		"1 a:1\n",                     // bad index
		"1 0:z\n",                     // bad value
		"1 0=1\n",                     // malformed pair
		"1 -1:3\n",                    // negative index
		"1 999999999999999999999:1\n", // overflow index
		"1 4294967297:2.5\n",          // index past int32
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		ds, err := ParseLibSVM(strings.NewReader(in), 0)
		if err != nil {
			return
		}
		// Parsed data must be structurally sound.
		for i := range ds.Points {
			p := &ds.Points[i]
			if mi := p.Features.MaxIndex(); int(mi) >= ds.NumFeatures {
				t.Fatalf("point %d index %d outside dimension %d", i, mi, ds.NumFeatures)
			}
			prev := int32(-1)
			for _, idx := range p.Features.Indices {
				if idx <= prev {
					t.Fatalf("point %d indices not strictly increasing", i)
				}
				prev = idx
			}
		}
		// Round trip: write and re-parse must preserve everything.
		var buf bytes.Buffer
		if err := WriteLibSVM(&buf, ds); err != nil {
			t.Fatalf("write: %v", err)
		}
		back, err := ParseLibSVM(&buf, ds.NumFeatures)
		if err != nil {
			t.Fatalf("re-parse: %v", err)
		}
		if back.N() != ds.N() {
			t.Fatalf("round trip dropped rows: %d vs %d", back.N(), ds.N())
		}
		for i := range ds.Points {
			if !ds.Points[i].Features.Equal(back.Points[i].Features) {
				t.Fatalf("round trip changed point %d", i)
			}
		}
	})
}

// FuzzBlockReader checks that the streaming reader agrees with the batch
// parser on arbitrary input: both accept (with identical content) or both
// reject.
func FuzzBlockReader(f *testing.F) {
	f.Add("+1 0:1\n-1 1:1\n+1 2:1\n", 2)
	f.Add("", 1)
	f.Add("bogus line\n", 3)
	f.Add("1 4294967297:2.5\n", 2)
	f.Fuzz(func(t *testing.T, in string, blockSize int) {
		if blockSize <= 0 || blockSize > 1024 {
			return
		}
		full, fullErr := ParseLibSVM(strings.NewReader(in), 0)
		br, err := NewBlockReader(strings.NewReader(in), blockSize, 0)
		if err != nil {
			t.Fatalf("reader construction: %v", err)
		}
		var streamed []Point
		var streamErr error
		for {
			blk, err := br.Next()
			if err != nil {
				streamErr = err
				break
			}
			if blk == nil {
				break
			}
			streamed = append(streamed, blk.Points...)
		}
		if (fullErr == nil) != (streamErr == nil) {
			t.Fatalf("parsers disagree: full=%v stream=%v", fullErr, streamErr)
		}
		if fullErr != nil {
			return
		}
		if len(streamed) != full.N() {
			t.Fatalf("row counts differ: %d vs %d", len(streamed), full.N())
		}
		for i := range streamed {
			if streamed[i].Label != full.Points[i].Label || !streamed[i].Features.Equal(full.Points[i].Features) {
				t.Fatalf("row %d differs", i)
			}
		}
	})
}
