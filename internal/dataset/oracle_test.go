package dataset

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"columnsgd/internal/vec"
)

// The string-based parsers the byte-level parser replaced, kept verbatim
// as oracles: oracleParseLibSVM counts physical lines and checks the
// declared dimension at the end; oracleBlockReader counts data rows and
// bounds every index as it goes.

func oracleParseLibSVM(r io.Reader, numFeatures int) (*Dataset, error) {
	ds := &Dataset{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 64*1024*1024)
	maxIdx := int32(-1)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		label, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d: bad label %q: %w", lineNo, fields[0], err)
		}
		idx := make([]int32, 0, len(fields)-1)
		val := make([]float64, 0, len(fields)-1)
		for _, f := range fields[1:] {
			colon := strings.IndexByte(f, ':')
			if colon < 0 {
				return nil, fmt.Errorf("dataset: line %d: malformed feature %q", lineNo, f)
			}
			i, err := strconv.Atoi(f[:colon])
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d: bad index %q: %w", lineNo, f[:colon], err)
			}
			v, err := strconv.ParseFloat(f[colon+1:], 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d: bad value %q: %w", lineNo, f[colon+1:], err)
			}
			if v == 0 {
				continue
			}
			idx = append(idx, int32(i))
			val = append(val, v)
		}
		sp, err := vec.NewSparse(idx, val)
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d: %w", lineNo, err)
		}
		if mi := sp.MaxIndex(); mi > maxIdx {
			maxIdx = mi
		}
		ds.Points = append(ds.Points, Point{Label: label, Features: sp})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dataset: scan: %w", err)
	}
	if numFeatures > 0 {
		if int(maxIdx) >= numFeatures {
			return nil, fmt.Errorf("dataset: feature index %d exceeds declared dimension %d", maxIdx, numFeatures)
		}
		ds.NumFeatures = numFeatures
	} else {
		ds.NumFeatures = int(maxIdx) + 1
	}
	return ds, nil
}

type oracleBlockReader struct {
	r         *bufio.Scanner
	blockSize int
	features  int
	nextBlock int
	rowsRead  int
	maxIdx    int32
	err       error
	done      bool
}

func newOracleBlockReader(r io.Reader, blockSize, features int) *oracleBlockReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 64*1024*1024)
	return &oracleBlockReader{r: sc, blockSize: blockSize, features: features, maxIdx: -1}
}

func (b *oracleBlockReader) Next() (*Block, error) {
	if b.err != nil {
		return nil, b.err
	}
	if b.done {
		return nil, nil
	}
	blk := &Block{ID: b.nextBlock}
	for len(blk.Points) < b.blockSize {
		if !b.r.Scan() {
			if err := b.r.Err(); err != nil {
				b.err = fmt.Errorf("dataset: scan: %w", err)
				return nil, b.err
			}
			b.done = true
			break
		}
		line := strings.TrimSpace(b.r.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		p, maxIdx, err := oracleParseLine(line, b.rowsRead+len(blk.Points)+1, b.features)
		if err != nil {
			b.err = err
			return nil, err
		}
		if maxIdx > b.maxIdx {
			b.maxIdx = maxIdx
		}
		blk.Points = append(blk.Points, p)
	}
	if len(blk.Points) == 0 {
		return nil, nil
	}
	b.nextBlock++
	b.rowsRead += len(blk.Points)
	return blk, nil
}

func oracleParseLine(line string, lineNo, features int) (Point, int32, error) {
	fields := strings.Fields(line)
	label, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return Point{}, -1, fmt.Errorf("dataset: line %d: bad label %q: %w", lineNo, fields[0], err)
	}
	idx := make([]int32, 0, len(fields)-1)
	val := make([]float64, 0, len(fields)-1)
	for _, f := range fields[1:] {
		colon := strings.IndexByte(f, ':')
		if colon < 0 {
			return Point{}, -1, fmt.Errorf("dataset: line %d: malformed feature %q", lineNo, f)
		}
		i, err := strconv.Atoi(f[:colon])
		if err != nil {
			return Point{}, -1, fmt.Errorf("dataset: line %d: bad index %q: %w", lineNo, f[:colon], err)
		}
		v, err := strconv.ParseFloat(f[colon+1:], 64)
		if err != nil {
			return Point{}, -1, fmt.Errorf("dataset: line %d: bad value %q: %w", lineNo, f[colon+1:], err)
		}
		if v == 0 {
			continue
		}
		if features > 0 && i >= features {
			return Point{}, -1, fmt.Errorf("dataset: line %d: feature index %d exceeds dimension %d", lineNo, i, features)
		}
		idx = append(idx, int32(i))
		val = append(val, v)
	}
	sp, err := vec.NewSparse(idx, val)
	if err != nil {
		return Point{}, -1, fmt.Errorf("dataset: line %d: %w", lineNo, err)
	}
	return Point{Label: label, Features: sp}, sp.MaxIndex(), nil
}

// genLibSVM writes rows lines of LibSVM-ish text. bad is the chance that
// any one token is malformed; indices stay inside int32, where the
// oracles and the parser agree.
func genLibSVM(r *rand.Rand, rows int, bad float64) string {
	pick := func(s ...string) string { return s[r.Intn(len(s))] }
	seps := []string{" ", " ", " ", "  ", "\t", " ", " ", "\v", "\u0085"}
	var sb strings.Builder
	for l := 0; l < rows; l++ {
		switch r.Intn(12) {
		case 0:
			sb.WriteString(pick("", "   ", "\t", " "))
		case 1:
			sb.WriteString(pick("# comment 1:2", "  #x", "#", "\t# a:b"))
		default:
			sb.WriteString(pick("", "", " ", "\t"))
			if r.Float64() < bad {
				sb.WriteString(pick("x", "1..2", "+-1", "0x", "1:2"))
			} else {
				sb.WriteString(pick("+1", "-1", "1", "0", "2.5", "1e3", "-0", "0x1p-2", "3"))
			}
			n := r.Intn(9)
			sorted := r.Intn(3) > 0
			idx := r.Intn(8)
			for k := 0; k < n; k++ {
				sb.WriteString(pick(seps...))
				if r.Float64() < bad {
					sb.WriteString(pick("5", "a:1", ":1", "1x:2", "-3:1", "3:", "3:z", "4:1e400", "1:2:3",
						"999999999999999999999:1", "7=1"))
					continue
				}
				if sorted {
					idx += 1 + r.Intn(5)
				} else {
					idx = r.Intn(64)
				}
				is := strconv.Itoa(idx)
				switch r.Intn(20) {
				case 0:
					is = "+" + is
				case 1:
					is = "00" + is
				case 2:
					is = "2147483647"
				}
				sb.WriteString(is + ":" + pick("1", "1", "0", "-0", "0.5", "-2.25", "1e-300", "3.14159",
					"nan", "-inf", "1_0", "12345678901234567890", ".5", "0x1p3"))
			}
			sb.WriteString(pick("", "", " ", "\t", "\r"))
		}
		sb.WriteString(pick("\n", "\n", "\n", "\r\n"))
	}
	if r.Intn(4) == 0 {
		sb.WriteString("1 2:3") // last line without a newline
	}
	return sb.String()
}

// samePoints compares rows bit for bit, NaNs included, and tells a nil
// feature slice from an empty one.
func samePoints(a, b []Point) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d rows vs %d", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if math.Float64bits(x.Label) != math.Float64bits(y.Label) ||
			(x.Features.Indices == nil) != (y.Features.Indices == nil) ||
			(x.Features.Values == nil) != (y.Features.Values == nil) ||
			len(x.Features.Indices) != len(y.Features.Indices) || len(x.Features.Values) != len(y.Features.Values) {
			return fmt.Errorf("row %d: %+v vs %+v", i, x, y)
		}
		for k := range x.Features.Indices {
			if x.Features.Indices[k] != y.Features.Indices[k] ||
				math.Float64bits(x.Features.Values[k]) != math.Float64bits(y.Features.Values[k]) {
				return fmt.Errorf("row %d: %+v vs %+v", i, x, y)
			}
		}
	}
	return nil
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

var handMadeInputs = []string{
	"",
	"\n\n",
	"# only a comment\n",
	"+1 0:1 2:0.5\n-1 1:2\n",
	"1 5:1 3:2 5:4 0:0 1:-0\n",
	"1\r\n-1 3:1\r\n\r\n",
	"  1 \t 0:1 2:3  \n",
	"\u00851 1:1\n",
	"1 0:1\n# c\n\n2 0:z\n",
	"x 0:1\n",
	"1 0:1\n-1 a:1\n",
	"1 0:1\n1 1:1\n1 2:1 3\n",
	"1 0:1\n1 1:1\n1 2:1\n1 -1:3\n",
	"1 0:1\n1 2:1 1:1 -1:3 9:1\n",
	"1 0:1 0:2\n",
	"1 999999999999999999999:1\n",
	"1 2147483647:1\n",
	"1 60:1\n1 0:1\n",
	"1 60:0\n",
	"1 3:1e400\n",
	"1 3:nan 1:inf\n",
	"1 1:1\n1 2:2\n1 3:3\n1 4:4\n1 5:5\n1 6:x\n1 7:7\n",
}

// TestParserMatchesOracle runs the parser and the string-based oracles
// over hand-made and generated inputs at 1, 2 and 4 parse workers:
// the same rows, bit for bit, and the same first error, text included.
func TestParserMatchesOracle(t *testing.T) {
	inputs := append([]string(nil), handMadeInputs...)
	r := rand.New(rand.NewSource(52))
	for i := 0; i < 150; i++ {
		bad := 0.0
		if i%2 == 1 {
			bad = 0.01 + 0.05*r.Float64()
		}
		inputs = append(inputs, genLibSVM(r, 1+r.Intn(60), bad))
	}
	procsList := []int{1, 2, 4}
	var rejected, parses int
	for n, in := range inputs {
		for _, dim := range []int{0, 50} {
			want, wantErr := oracleParseLibSVM(strings.NewReader(in), dim)
			parses++
			if wantErr != nil {
				rejected++
			}
			for _, procs := range procsList {
				got, gotErr := parseLibSVM(strings.NewReader(in), dim, procs)
				if !sameErr(gotErr, wantErr) {
					t.Fatalf("input %d procs %d dim %d: ParseLibSVM error %v, oracle %v\n%q", n, procs, dim, gotErr, wantErr, in)
				}
				if wantErr == nil {
					if err := samePoints(got.Points, want.Points); err != nil || got.NumFeatures != want.NumFeatures {
						t.Fatalf("input %d procs %d dim %d: ParseLibSVM %v (features %d vs %d)\n%q", n, procs, dim, err, got.NumFeatures, want.NumFeatures, in)
					}
				}
			}
			for _, bs := range []int{1, 3, 64} {
				want := readAll(newOracleBlockReader(strings.NewReader(in), bs, dim))
				for _, procs := range procsList {
					br, err := NewBlockReader(strings.NewReader(in), bs, dim)
					if err != nil {
						t.Fatal(err)
					}
					br.procs = procs
					if err := sameStream(readAll(br), want); err != nil {
						t.Fatalf("input %d procs %d dim %d block %d: %v\n%q", n, procs, dim, bs, err, in)
					}
				}
			}
		}
	}
	if rejected == 0 || rejected == parses {
		t.Fatalf("%d of %d parses rejected: the inputs do not exercise both outcomes", rejected, parses)
	}
}

// stream is everything a block reader produced until its end or error.
type stream struct {
	blocks   []*Block
	err      error
	rows     int
	maxIndex int32
}

func readAll(br interface{ Next() (*Block, error) }) stream {
	var st stream
	for {
		blk, err := br.Next()
		if err != nil || blk == nil {
			st.err = err
			break
		}
		st.blocks = append(st.blocks, blk)
	}
	switch br := br.(type) {
	case *BlockReader:
		st.rows, st.maxIndex = br.RowsRead(), br.MaxIndex()
	case *oracleBlockReader:
		st.rows, st.maxIndex = br.rowsRead, br.maxIdx
	}
	return st
}

// sameStream compares two streams block by block.
func sameStream(got, want stream) error {
	if !sameErr(got.err, want.err) {
		return fmt.Errorf("error %v, oracle %v", got.err, want.err)
	}
	if len(got.blocks) != len(want.blocks) {
		return fmt.Errorf("%d blocks, oracle %d", len(got.blocks), len(want.blocks))
	}
	for i, g := range got.blocks {
		if g.ID != want.blocks[i].ID {
			return fmt.Errorf("block id %d, oracle %d", g.ID, want.blocks[i].ID)
		}
		if err := samePoints(g.Points, want.blocks[i].Points); err != nil {
			return fmt.Errorf("block %d: %v", g.ID, err)
		}
	}
	if got.rows != want.rows || got.maxIndex != want.maxIndex {
		return fmt.Errorf("rows %d max %d, oracle %d %d", got.rows, got.maxIndex, want.rows, want.maxIndex)
	}
	return nil
}

// TestParseIndexWrap: an index outside int32 is a bad index, in both entry
// points and whatever the dimension, instead of wrapping onto a real
// column.
func TestParseIndexWrap(t *testing.T) {
	cases := []struct {
		in, tok string
	}{
		{"1 4294967297:2.5\n", "4294967297"},
		{"1 2147483648:1\n", "2147483648"},
		{"1 0:1 -4294967295:1\n", "-4294967295"},
	}
	for _, c := range cases {
		want := fmt.Sprintf("dataset: line 1: bad index %q: strconv.Atoi: parsing %q: value out of range", c.tok, c.tok)
		if _, err := ParseLibSVM(strings.NewReader(c.in), 0); err == nil || err.Error() != want {
			t.Errorf("ParseLibSVM(%q) = %v, want %s", c.in, err, want)
		}
		br, _ := NewBlockReader(strings.NewReader(c.in), 4, 0)
		if _, err := br.Next(); err == nil || err.Error() != want {
			t.Errorf("BlockReader(%q) = %v, want %s", c.in, err, want)
		}
		if _, err := ParseLibSVM(strings.NewReader(c.in), 1<<40); err == nil || err.Error() != want {
			t.Errorf("ParseLibSVM(%q, 2^40) = %v, want %s", c.in, err, want)
		}
	}
	// The largest int32 index still parses.
	ds, err := ParseLibSVM(strings.NewReader("1 2147483647:1\n"), 0)
	if err != nil || ds.Points[0].Features.Indices[0] != math.MaxInt32 {
		t.Fatalf("max int32 index: %v %+v", err, ds)
	}
}

// TestNextAllocs: Next allocates per block and per parse worker, not
// per row, on sorted rows.
func TestNextAllocs(t *testing.T) {
	const rows, blocks = 512, 12
	var one bytes.Buffer
	r := rand.New(rand.NewSource(1))
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&one, "%d", 2*r.Intn(2)-1)
		for j, n := 0, 1+r.Intn(20); j < n; j++ {
			fmt.Fprintf(&one, " %d:%g", 30*j+r.Intn(30), r.NormFloat64())
		}
		one.WriteByte('\n')
	}
	in := bytes.Repeat(one.Bytes(), blocks)
	for _, procs := range []int{1, 2, 4} {
		br, err := NewBlockReader(bytes.NewReader(in), rows, 0)
		if err != nil {
			t.Fatal(err)
		}
		br.procs = procs
		if _, err := br.Next(); err != nil { // warm the reused buffers
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(blocks-2, func() {
			if blk, err := br.Next(); blk == nil || err != nil {
				t.Fatalf("block: %v %v", blk, err)
			}
		})
		if ceiling := float64(6 + 5*procs); allocs > ceiling {
			t.Errorf("procs %d: %.0f allocations per %d-row block, want <= %.0f", procs, allocs, rows, ceiling)
		}
		if allocs/rows > 1 {
			t.Errorf("procs %d: %.2f allocations per row", procs, allocs/rows)
		}
	}
}

// FuzzParserMatchesOracle runs arbitrary input through ParseLibSVM and the
// block reader at 1, 2 and 4 parse workers, and through the string-based
// oracles: the same rows, bit for bit, and the same first error, text
// included. Input with an index outside int32, which the oracles wrap
// onto a real column and the parser rejects, is TestParseIndexWrap's.
func FuzzParserMatchesOracle(f *testing.F) {
	for _, in := range handMadeInputs {
		f.Add(in, 3)
	}
	f.Add("1 4294967297:2.5\n", 2)
	f.Add("NAN 1:1\n+1 3:2 2:1\n", 1)
	f.Fuzz(func(t *testing.T, in string, blockSize int) {
		if blockSize <= 0 || blockSize > 1024 || wrapsIndex(in) {
			return
		}
		for _, dim := range []int{0, 50} {
			want, wantErr := oracleParseLibSVM(strings.NewReader(in), dim)
			wantStream := readAll(newOracleBlockReader(strings.NewReader(in), blockSize, dim))
			for _, procs := range []int{1, 2, 4} {
				got, gotErr := parseLibSVM(strings.NewReader(in), dim, procs)
				if !sameErr(gotErr, wantErr) {
					t.Fatalf("procs %d dim %d: ParseLibSVM error %v, oracle %v", procs, dim, gotErr, wantErr)
				}
				if wantErr == nil {
					if err := samePoints(got.Points, want.Points); err != nil || got.NumFeatures != want.NumFeatures {
						t.Fatalf("procs %d dim %d: ParseLibSVM %v (features %d vs %d)", procs, dim, err, got.NumFeatures, want.NumFeatures)
					}
				}
				br, err := NewBlockReader(strings.NewReader(in), blockSize, dim)
				if err != nil {
					t.Fatal(err)
				}
				br.procs = procs
				if err := sameStream(readAll(br), wantStream); err != nil {
					t.Fatalf("procs %d dim %d block %d: %v", procs, dim, blockSize, err)
				}
			}
		}
	})
}

// wrapsIndex reports whether any idx:val token of in has an index that
// strconv.Atoi reads outside int32. Comment lines count too, which only
// skips more input than needed.
func wrapsIndex(in string) bool {
	for _, f := range strings.Fields(in) {
		if colon := strings.IndexByte(f, ':'); colon >= 0 {
			if i, err := strconv.Atoi(f[:colon]); err == nil && (i > math.MaxInt32 || i < math.MinInt32) {
				return true
			}
		}
	}
	return false
}

// TestBlockReaderReleasesPool: the parse pool stops at end of input, at
// the first error and at Close mid-stream, so a finished reader holds no
// worker goroutines.
func TestBlockReaderReleasesPool(t *testing.T) {
	cases := []struct {
		name, in string
		reads    int
		close    bool
	}{
		{"end of input", "1 0:1\n1 1:1\n1 2:1\n", 2, false},
		{"first error", "1 0:1\n1 1:1\nx 2:1\n1 3:1\n", 2, false},
		{"close", "1 0:1\n1 1:1\n1 2:1\n", 1, true},
	}
	for _, c := range cases {
		br, err := NewBlockReader(strings.NewReader(c.in), 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		br.procs = 2
		for i := 0; i < c.reads; i++ {
			if i == 1 && br.pool == nil {
				t.Fatalf("%s: pool stopped after one block of several", c.name)
			}
			br.Next()
		}
		if c.close {
			br.Close()
		}
		if br.pool != nil {
			t.Errorf("%s: parse pool still running", c.name)
		}
	}
}
