package dataset

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"unicode"
	"unicode/utf8"

	"columnsgd/internal/par"
	"columnsgd/internal/vec"
)

// BlockReader streams a LibSVM file block by block — the master-side view
// of Algorithm 4's block queue, where row-major training data sits in
// distributed storage and is consumed in fixed-size blocks without ever
// materializing the whole dataset in the master's memory.
//
// Next cuts a block's raw row bytes serially, then parses them on a
// par.Pool of GOMAXPROCS workers, each chunk a contiguous run of rows with
// one index/value arena of its own. The rows, their order and the first
// error (by lowest line) are the same at any pool size. The pool lives
// from the first parsed block until end of input, the first error or
// Close, whichever comes first.
type BlockReader struct {
	r         *bufio.Scanner
	closer    io.Closer
	blockSize int
	features  int
	nextBlock int
	rowsRead  int
	maxIdx    int32
	err       error
	done      bool

	// physical numbers errors by physical line (ParseLibSVM) instead of
	// by data row; lines counts the physical lines scanned so far.
	physical bool
	lines    int
	// procs overrides the parse pool's size when positive (tests).
	procs int
	pool  *par.Pool

	// The block being cut, reused across Next calls: the data rows' bytes
	// back to back, each row's end offset in buf and its physical line.
	buf     []byte
	ends    []int
	lineNos []int
}

// Block is one streamed block of rows.
type Block struct {
	// ID is the block's position in the queue (0, 1, ...).
	ID int
	// Points are the block's rows, at most blockSize of them.
	Points []Point
}

// NewBlockReader streams LibSVM text from r in blocks of blockSize rows.
// features > 0 enforces a feature bound; 0 accepts any indices (the
// caller can read MaxIndex afterwards).
func NewBlockReader(r io.Reader, blockSize, features int) (*BlockReader, error) {
	if blockSize <= 0 {
		return nil, fmt.Errorf("dataset: block size must be positive, got %d", blockSize)
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 64*1024*1024)
	return &BlockReader{r: sc, blockSize: blockSize, features: features, maxIdx: -1}, nil
}

// OpenBlockFile streams a LibSVM file from disk; Close releases it.
func OpenBlockFile(path string, blockSize, features int) (*BlockReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	br, err := NewBlockReader(f, blockSize, features)
	if err != nil {
		f.Close()
		return nil, err
	}
	br.closer = f
	return br, nil
}

// Next returns the next block, or (nil, nil) at end of input.
func (b *BlockReader) Next() (*Block, error) {
	if b.err != nil {
		return nil, b.err
	}
	if b.done {
		return nil, nil
	}
	scanErr := b.cut()
	points, err := b.parse()
	if err == nil {
		err = scanErr
	}
	if b.done || err != nil {
		b.release()
	}
	if err != nil {
		b.err = err
		return nil, err
	}
	if len(points) == 0 {
		return nil, nil
	}
	blk := &Block{ID: b.nextBlock, Points: points}
	b.nextBlock++
	b.rowsRead += len(points)
	return blk, nil
}

// cut scans up to blockSize data rows into buf, skipping blank and
// comment lines. It sets done at end of input and returns a scan error;
// the rows cut before it still get parsed, so an earlier bad row wins.
func (b *BlockReader) cut() error {
	b.buf, b.ends, b.lineNos = b.buf[:0], b.ends[:0], b.lineNos[:0]
	for len(b.ends) < b.blockSize {
		if !b.r.Scan() {
			b.done = true
			if err := b.r.Err(); err != nil {
				return fmt.Errorf("dataset: scan: %w", err)
			}
			return nil
		}
		b.lines++
		line := b.r.Bytes()
		if s, e := field(line, 0); s == e || line[s] == '#' {
			continue
		}
		b.buf = append(b.buf, line...)
		b.ends = append(b.ends, len(b.buf))
		b.lineNos = append(b.lineNos, b.lines)
	}
	return nil
}

// parse parses the cut rows in pool chunks. Each chunk stops at its first
// bad row; the first chunk's error that holds one is the block's lowest
// bad row.
func (b *BlockReader) parse() ([]Point, error) {
	n := len(b.ends)
	if n == 0 {
		return nil, nil
	}
	if b.pool == nil {
		b.pool = par.New(b.procs)
	}
	grain := (n + b.pool.Procs() - 1) / b.pool.Procs()
	points := make([]Point, n)
	type result struct {
		maxIdx int32
		err    error
	}
	res := make([]result, par.NumChunks(n, grain))
	b.pool.Run(n, grain, func(c, lo, hi int) {
		r := result{maxIdx: -1}
		colons := bytes.Count(b.buf[b.rowStart(lo):b.ends[hi-1]], []byte{':'})
		ar := arena{idx: make([]int32, 0, colons), val: make([]float64, 0, colons)}
		for i := lo; i < hi; i++ {
			p, err := ar.parseRow(b.buf[b.rowStart(i):b.ends[i]], b.lineNo(i), b.features)
			if err != nil {
				r.err = err
				break
			}
			r.maxIdx = max(r.maxIdx, p.Features.MaxIndex())
			points[i] = p
		}
		res[c] = r
	})
	for _, r := range res {
		b.maxIdx = max(b.maxIdx, r.maxIdx)
		if r.err != nil {
			return nil, r.err
		}
	}
	return points, nil
}

// release stops the parse pool's workers; a later parse would start a
// new pool.
func (b *BlockReader) release() {
	b.pool.Shutdown()
	b.pool = nil
}

func (b *BlockReader) rowStart(i int) int {
	if i == 0 {
		return 0
	}
	return b.ends[i-1]
}

// lineNo is the number row i of the block carries in error messages.
func (b *BlockReader) lineNo(i int) int {
	if b.physical {
		return b.lineNos[i]
	}
	return b.rowsRead + i + 1
}

// RowsRead returns the number of data rows streamed so far.
func (b *BlockReader) RowsRead() int { return b.rowsRead }

// MaxIndex returns the largest feature index seen so far (-1 if none).
func (b *BlockReader) MaxIndex() int32 { return b.maxIdx }

// Close stops the parse pool and releases the underlying file, if any.
func (b *BlockReader) Close() error {
	b.release()
	if b.closer != nil {
		return b.closer.Close()
	}
	return nil
}

// arena is one parse chunk's backing store for its rows' features.
// It is sized by the colons in the chunk's rows, an upper bound on
// their features, so appends never reallocate and every row's slices are
// capped windows into it.
type arena struct {
	idx []int32
	val []float64
}

// parseRow parses one LibSVM data row ("label idx:val ..."). features > 0
// bounds the indices. A row whose indices are already strictly increasing
// keeps its arena window; any other row goes through vec.NewSparse, which
// sorts and merges duplicates into a fresh copy.
func (a *arena) parseRow(line []byte, lineNo, features int) (Point, error) {
	s, e := field(line, 0)
	tok := line[s:e]
	label, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return Point{}, fmt.Errorf("dataset: line %d: bad label %q: %w", lineNo, tok, err)
	}
	start := len(a.idx)
	prev, sorted := int32(-1), true
	for {
		if s, e = field(line, e); s == e {
			break
		}
		tok = line[s:e]
		colon := bytes.IndexByte(tok, ':')
		if colon < 0 {
			return Point{}, fmt.Errorf("dataset: line %d: malformed feature %q", lineNo, tok)
		}
		i, err := strconv.Atoi(string(tok[:colon]))
		if err != nil {
			return Point{}, fmt.Errorf("dataset: line %d: bad index %q: %w", lineNo, tok[:colon], err)
		}
		v, err := strconv.ParseFloat(string(tok[colon+1:]), 64)
		if err != nil {
			return Point{}, fmt.Errorf("dataset: line %d: bad value %q: %w", lineNo, tok[colon+1:], err)
		}
		if v == 0 {
			continue
		}
		if features > 0 && i >= features {
			return Point{}, fmt.Errorf("dataset: line %d: feature index %d exceeds dimension %d", lineNo, i, features)
		}
		if i > math.MaxInt32 || i < math.MinInt32 {
			return Point{}, fmt.Errorf("dataset: line %d: bad index %q: %w", lineNo, tok[:colon],
				&strconv.NumError{Func: "Atoi", Num: string(tok[:colon]), Err: strconv.ErrRange})
		}
		sorted = sorted && int32(i) > prev
		prev = int32(i)
		a.idx = append(a.idx, int32(i))
		a.val = append(a.val, v)
	}
	end := len(a.idx)
	sp := vec.Sparse{Indices: a.idx[start:end:end], Values: a.val[start:end:end]}
	if !sorted {
		sp, err = vec.NewSparse(sp.Indices, sp.Values)
		a.idx, a.val = a.idx[:start], a.val[:start]
		if err != nil {
			return Point{}, fmt.Errorf("dataset: line %d: %w", lineNo, err)
		}
	}
	return Point{Label: label, Features: sp}, nil
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// field returns the bounds [s, e) of the first field of line at or after
// offset i, splitting where strings.Fields splits; s == e when none is
// left.
func field(line []byte, i int) (s, e int) {
	for i < len(line) {
		if c := line[i]; c < utf8.RuneSelf {
			if !asciiSpace[c] {
				break
			}
			i++
		} else {
			r, n := utf8.DecodeRune(line[i:])
			if !unicode.IsSpace(r) {
				break
			}
			i += n
		}
	}
	s = i
	for i < len(line) {
		if c := line[i]; c > ' ' && c < utf8.RuneSelf {
			i++ // every ASCII space is <= ' '
		} else if c < utf8.RuneSelf {
			if asciiSpace[c] {
				break
			}
			i++
		} else {
			r, n := utf8.DecodeRune(line[i:])
			if unicode.IsSpace(r) {
				break
			}
			i += n
		}
	}
	return s, i
}
