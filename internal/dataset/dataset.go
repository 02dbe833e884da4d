// Package dataset provides training-data handling for ColumnSGD: the
// LibSVM text format used by all of the paper's datasets, an in-memory
// row-oriented store (the layout data arrives in from distributed storage),
// and synthetic generators parameterized to match the published statistics
// of the paper's evaluation datasets (avazu, kddb, kdd12, criteo, WX).
package dataset

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"

	"columnsgd/internal/vec"
)

// Point is one labeled training example. Labels are +1/-1 for binary
// models (LR, SVM, FM) and 0..K-1 for multinomial models (MLR).
type Point struct {
	Label    float64
	Features vec.Sparse
}

// Dataset is an in-memory row-oriented dataset, the layout training data
// has when it arrives from row-major distributed storage (paper §IV-A).
type Dataset struct {
	Points []Point
	// NumFeatures is the feature dimension m. It is at least
	// max(index)+1 over all points but may be larger (the model
	// dimension is fixed a priori in the paper's experiments).
	NumFeatures int
}

// N returns the number of data points.
func (d *Dataset) N() int { return len(d.Points) }

// NNZ returns the total number of non-zero features across all points.
func (d *Dataset) NNZ() int64 {
	var n int64
	for i := range d.Points {
		n += int64(d.Points[i].Features.NNZ())
	}
	return n
}

// Sparsity returns the fraction of zero entries (the paper's ρ).
func (d *Dataset) Sparsity() float64 {
	if d.N() == 0 || d.NumFeatures == 0 {
		return 0
	}
	total := float64(d.N()) * float64(d.NumFeatures)
	return 1 - float64(d.NNZ())/total
}

// SizeBytes estimates the dataset's storage footprint the way the paper's
// analysis does: S = N + N·m·(1−ρ), i.e. one unit per label plus one per
// non-zero, scaled to bytes (8 per value + 4 per index).
func (d *Dataset) SizeBytes() int64 {
	return int64(d.N())*8 + d.NNZ()*12
}

// Slice returns the row range [lo, hi) as a shallow Dataset view.
func (d *Dataset) Slice(lo, hi int) *Dataset {
	return &Dataset{Points: d.Points[lo:hi], NumFeatures: d.NumFeatures}
}

// ParseLibSVM reads LibSVM-formatted data ("label idx:val idx:val ...",
// 1-based or 0-based indices both accepted; we normalize to 0-based by
// accepting the indices as written). numFeatures <= 0 means infer from
// the data (max index + 1).
func ParseLibSVM(r io.Reader, numFeatures int) (*Dataset, error) {
	return parseLibSVM(r, numFeatures, 0)
}

// parseLibSVM is ParseLibSVM on a pool of procs parse workers (0:
// GOMAXPROCS).
func parseLibSVM(r io.Reader, numFeatures, procs int) (*Dataset, error) {
	br, err := NewBlockReader(r, parseBlockRows, 0)
	if err != nil {
		return nil, err
	}
	br.physical, br.procs = true, procs
	ds := &Dataset{}
	for {
		blk, err := br.Next()
		if err != nil {
			return nil, err
		}
		if blk == nil {
			break
		}
		ds.Points = append(ds.Points, blk.Points...)
	}
	maxIdx := br.MaxIndex()
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

// parseBlockRows is how many rows ParseLibSVM hands the parse pool
// at a time.
const parseBlockRows = 4096

// WriteLibSVM writes the dataset in LibSVM text format.
func WriteLibSVM(w io.Writer, ds *Dataset) error {
	bw := bufio.NewWriter(w)
	for i := range ds.Points {
		p := &ds.Points[i]
		if _, err := fmt.Fprintf(bw, "%g", p.Label); err != nil {
			return err
		}
		for k, idx := range p.Features.Indices {
			if _, err := fmt.Fprintf(bw, " %d:%g", idx, p.Features.Values[k]); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// LoadLibSVMFile parses a LibSVM file from disk.
func LoadLibSVMFile(path string, numFeatures int) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	defer f.Close()
	return ParseLibSVM(f, numFeatures)
}

// SaveLibSVMFile writes a LibSVM file to disk.
func SaveLibSVMFile(path string, ds *Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	if err := WriteLibSVM(f, ds); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Stats summarizes a dataset the way the paper's Table II does.
type Stats struct {
	Instances    int
	Features     int
	NNZ          int64
	Sparsity     float64
	SizeBytes    int64
	AvgNNZPerRow float64
}

// Summarize computes dataset statistics.
func Summarize(ds *Dataset) Stats {
	nnz := ds.NNZ()
	avg := 0.0
	if ds.N() > 0 {
		avg = float64(nnz) / float64(ds.N())
	}
	return Stats{
		Instances:    ds.N(),
		Features:     ds.NumFeatures,
		NNZ:          nnz,
		Sparsity:     ds.Sparsity(),
		SizeBytes:    ds.SizeBytes(),
		AvgNNZPerRow: avg,
	}
}

// String renders the stats as a Table II-style row.
func (s Stats) String() string {
	return fmt.Sprintf("instances=%d features=%d nnz=%d sparsity=%.6f size=%s avg_nnz/row=%.1f",
		s.Instances, s.Features, s.NNZ, s.Sparsity, FormatBytes(s.SizeBytes), s.AvgNNZPerRow)
}

// FormatBytes renders a byte count with binary units.
func FormatBytes(b int64) string {
	const unit = 1024
	if b < unit {
		return fmt.Sprintf("%dB", b)
	}
	div, exp := int64(unit), 0
	for n := b / unit; n >= unit; n /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f%ciB", float64(b)/float64(div), "KMGTPE"[exp])
}

// CheckBinaryLabels verifies every label is ±1, the convention the binary
// models (LR, SVM, FM) require.
func CheckBinaryLabels(ds *Dataset) error {
	for i := range ds.Points {
		if l := ds.Points[i].Label; l != 1 && l != -1 {
			return fmt.Errorf("dataset: point %d has non-binary label %g", i, l)
		}
	}
	return nil
}

// CheckClassLabels verifies every label is an integer in [0, k).
func CheckClassLabels(ds *Dataset, k int) error {
	for i := range ds.Points {
		l := ds.Points[i].Label
		if l != math.Trunc(l) || l < 0 || int(l) >= k {
			return fmt.Errorf("dataset: point %d has label %g outside [0,%d)", i, l, k)
		}
	}
	return nil
}
