package partition

import (
	"fmt"
	"sort"

	"columnsgd/internal/dataset"
	"columnsgd/internal/vec"
)

// Workset is the unit of block-based column dispatching (Fig. 5): the
// column slice of one block's rows destined for one worker, packed in CSR,
// together with the block's labels. Labels travel with every workset so
// each worker can compute loss terms and gradient coefficients locally.
type Workset struct {
	BlockID int
	Labels  []float64
	Data    *vec.CSR
}

// Rows returns the number of (partial) data points in the workset.
func (w *Workset) Rows() int { return w.Data.Rows() }

// SizeBytes estimates the workset's wire footprint: CSR payload plus
// 8 bytes per label and a fixed header.
func (w *Workset) SizeBytes() int64 {
	return w.Data.SizeBytes() + int64(len(w.Labels))*8 + 16
}

// Validate checks structural invariants.
func (w *Workset) Validate() error {
	if len(w.Labels) != w.Data.Rows() {
		return fmt.Errorf("partition: workset block %d: %d labels for %d rows",
			w.BlockID, len(w.Labels), w.Data.Rows())
	}
	return w.Data.Validate()
}

// Store is a worker's local collection of worksets, keyed by block ID —
// the hash map of line 7 in Algorithm 4. It also serves phase one of the
// two-phase index.
type Store struct {
	worksets map[int]*Workset
	// blockIDs is the sorted key set; kept so that all workers iterate
	// blocks in the same order during sampling.
	blockIDs []int
	rows     int
}

// NewStore creates an empty workset store.
func NewStore() *Store {
	return &Store{worksets: make(map[int]*Workset)}
}

// Put inserts a workset. Re-inserting a block ID replaces the previous
// workset (used by worker-failure recovery when data is reloaded).
func (s *Store) Put(w *Workset) error {
	if err := w.Validate(); err != nil {
		return err
	}
	if old, ok := s.worksets[w.BlockID]; ok {
		s.rows -= old.Rows()
	} else {
		s.blockIDs = append(s.blockIDs, w.BlockID)
		sort.Ints(s.blockIDs)
	}
	s.worksets[w.BlockID] = w
	s.rows += w.Rows()
	return nil
}

// Get returns the workset for a block ID.
func (s *Store) Get(blockID int) (*Workset, bool) {
	w, ok := s.worksets[blockID]
	return w, ok
}

// Blocks returns the sorted block IDs.
func (s *Store) Blocks() []int { return s.blockIDs }

// NumBlocks returns the number of stored worksets.
func (s *Store) NumBlocks() int { return len(s.blockIDs) }

// Rows returns the total number of (partial) data points stored.
func (s *Store) Rows() int { return s.rows }

// SizeBytes sums the stored worksets' footprints.
func (s *Store) SizeBytes() int64 {
	var n int64
	for _, w := range s.worksets {
		n += w.SizeBytes()
	}
	return n
}

// BlockMeta describes one block for samplers: its ID and row count. All
// workers hold identical BlockMeta lists after dispatch, which is what
// makes seed-synchronized sampling land on the same rows everywhere.
type BlockMeta struct {
	ID   int
	Rows int
}

// Meta extracts the store's block metadata in sorted-ID order.
func (s *Store) Meta() []BlockMeta {
	out := make([]BlockMeta, 0, len(s.blockIDs))
	for _, id := range s.blockIDs {
		out = append(out, BlockMeta{ID: id, Rows: s.worksets[id].Rows()})
	}
	return out
}

// DispatchStats records the message/byte traffic a dispatch strategy
// generates; Fig. 7 compares strategies on exactly these quantities.
type DispatchStats struct {
	// Messages is the number of discrete objects sent over the network
	// (each incurs per-object serialization and latency overhead).
	Messages int64
	// Bytes is the total payload volume.
	Bytes int64
	// Blocks is the number of blocks processed.
	Blocks int
	// Rows and NNZ count the dispatched data (read-cost modeling).
	Rows int
	NNZ  int64
}

// Dispatch runs block-based column dispatching (Algorithm 4) over an
// in-memory row-oriented dataset: the master conceptually queues blocks of
// blockSize rows; each block is split into K CSR worksets. deliver is
// invoked once per (block, destination worker) — the transport hook used
// by the cluster layer; pass nil to build the per-worker stores instead.
func Dispatch(ds *dataset.Dataset, s Scheme, blockSize int, deliver func(dst int, w *Workset) error) ([]*Store, DispatchStats, error) {
	if blockSize <= 0 {
		return nil, DispatchStats{}, fmt.Errorf("partition: blockSize must be positive, got %d", blockSize)
	}
	lo := 0
	next := func() (*dataset.Block, error) {
		if lo >= ds.N() {
			return nil, nil
		}
		hi := lo + blockSize
		if hi > ds.N() {
			hi = ds.N()
		}
		blk := &dataset.Block{ID: lo / blockSize, Points: ds.Points[lo:hi]}
		lo = hi
		return blk, nil
	}
	return DispatchStream(next, s, deliver)
}

// DispatchStream dispatches blocks from a streaming source (e.g. a
// dataset.BlockReader over a LibSVM file on disk). With a deliver hook the
// master holds no more than the block in hand — the block-queue design of
// Algorithm 4 — and the returned stores are nil; with deliver nil the K
// per-worker stores are built and returned. Every workset is validated
// either way. next returns (nil, nil) at end of input.
func DispatchStream(next func() (*dataset.Block, error), s Scheme, deliver func(dst int, w *Workset) error) ([]*Store, DispatchStats, error) {
	var stores []*Store
	if deliver == nil {
		stores = make([]*Store, s.NumWorkers())
		for i := range stores {
			stores[i] = NewStore()
		}
	}
	var stats DispatchStats
	for {
		blk, err := next()
		if err != nil {
			return nil, stats, err
		}
		if blk == nil {
			return stores, stats, nil
		}
		worksets, err := SplitBlock(blk, s)
		if err != nil {
			return nil, stats, err
		}
		stats.Blocks++
		stats.Rows += len(blk.Points)
		for i := range blk.Points {
			stats.NNZ += int64(blk.Points[i].Features.NNZ())
		}
		for dst, w := range worksets {
			stats.Messages++
			stats.Bytes += w.SizeBytes()
			if deliver == nil {
				if err := stores[dst].Put(w); err != nil {
					return nil, stats, err
				}
				continue
			}
			if err := w.Validate(); err != nil {
				return nil, stats, err
			}
			if err := deliver(dst, w); err != nil {
				return nil, stats, fmt.Errorf("partition: deliver block %d to worker %d: %w", blk.ID, dst, err)
			}
		}
	}
}

// SplitBlock builds the K worksets of one block under a scheme. It
// writes each row's column slices straight into the K CSRs, sized
// exactly by a counting pass; the result is what appending SplitRow's
// parts row by row would build.
func SplitBlock(blk *dataset.Block, s Scheme) ([]*Workset, error) {
	k := s.NumWorkers()
	nnz := make([]int, k)
	for i := range blk.Points {
		for _, j := range blk.Points[i].Features.Indices {
			nnz[s.Owner(j)]++
		}
	}
	csrs := make([]*vec.CSR, k)
	for w := range csrs {
		csrs[w] = vec.NewCSR(int32(s.PartSize(w)), len(blk.Points))
		if nnz[w] > 0 {
			csrs[w].Indices = make([]int32, 0, nnz[w])
			csrs[w].Values = make([]float64, 0, nnz[w])
		}
	}
	labels := make([]float64, len(blk.Points))
	for i := range blk.Points {
		x := blk.Points[i].Features
		labels[i] = blk.Points[i].Label
		for n, j := range x.Indices {
			c := csrs[s.Owner(j)]
			c.Indices = append(c.Indices, s.Local(j))
			c.Values = append(c.Values, x.Values[n])
		}
		for w, c := range csrs {
			lo, hi := c.IndPtr[len(c.IndPtr)-1], int64(len(c.Indices))
			if hi > lo && c.Indices[hi-1] >= c.Cols {
				return nil, fmt.Errorf("partition: block %d row %d worker %d: vec: row index %d exceeds CSR column bound %d",
					blk.ID, i, w, c.Indices[hi-1], c.Cols)
			}
			c.IndPtr = append(c.IndPtr, hi)
		}
	}
	out := make([]*Workset, k)
	for w := 0; w < k; w++ {
		out[w] = &Workset{BlockID: blk.ID, Labels: labels, Data: csrs[w]}
	}
	return out, nil
}

// NaiveDispatch implements the strawman of §IV-A ("Naive-ColumnSGD"):
// every row is split and each per-worker slice is sent as its own message.
// The resulting stores are identical to Dispatch's (one synthetic block of
// blockSize rows is assembled at the destination), but the traffic pattern
// is K messages per row instead of K per block — the overhead Fig. 7
// measures.
func NaiveDispatch(ds *dataset.Dataset, s Scheme, blockSize int, deliver func(dst int, row int, part vec.Sparse, label float64) error) ([]*Store, DispatchStats, error) {
	if blockSize <= 0 {
		return nil, DispatchStats{}, fmt.Errorf("partition: blockSize must be positive, got %d", blockSize)
	}
	k := s.NumWorkers()
	var stats DispatchStats

	// Destination-side assembly buffers, one CSR per worker per block.
	stores := make([]*Store, k)
	for i := range stores {
		stores[i] = NewStore()
	}
	var csrs []*vec.CSR
	var labels []float64
	blockID := -1

	flush := func(rows int) error {
		if blockID < 0 {
			return nil
		}
		for w := 0; w < k; w++ {
			ws := &Workset{BlockID: blockID, Labels: labels, Data: csrs[w]}
			if err := stores[w].Put(ws); err != nil {
				return err
			}
		}
		return nil
	}

	for i := 0; i < ds.N(); i++ {
		if i%blockSize == 0 {
			if err := flush(i); err != nil {
				return nil, stats, err
			}
			blockID++
			rows := blockSize
			if ds.N()-i < rows {
				rows = ds.N() - i
			}
			labels = make([]float64, 0, rows)
			csrs = make([]*vec.CSR, k)
			for w := 0; w < k; w++ {
				csrs[w] = vec.NewCSR(int32(s.PartSize(w)), rows)
			}
			stats.Blocks++
		}
		labels = append(labels, ds.Points[i].Label)
		parts := SplitRow(ds.Points[i].Features, s)
		for w := 0; w < k; w++ {
			stats.Messages++
			// Per-row slice wire cost: sparse payload + label + tiny header.
			stats.Bytes += int64(parts[w].NNZ())*12 + 8 + 16
			if deliver != nil {
				if err := deliver(w, i, parts[w], ds.Points[i].Label); err != nil {
					return nil, stats, fmt.Errorf("partition: naive deliver row %d to worker %d: %w", i, w, err)
				}
			}
			if err := csrs[w].AppendRow(parts[w]); err != nil {
				return nil, stats, err
			}
		}
	}
	if err := flush(ds.N()); err != nil {
		return nil, stats, err
	}
	return stores, stats, nil
}

// RowDispatchStats models the traffic of row-oriented loading (MLlib):
// each of the K workers receives N/K full rows. With repartition=true a
// global shuffle is added (every row is serialized and re-sent once more),
// matching the "MLlib-Repartition" bar in Fig. 7.
func RowDispatchStats(ds *dataset.Dataset, k int, repartition bool) DispatchStats {
	var stats DispatchStats
	var bytes int64
	for i := range ds.Points {
		bytes += int64(ds.Points[i].Features.NNZ())*12 + 8 + 16
	}
	stats.Blocks = k
	stats.Messages = int64(ds.N())
	stats.Bytes = bytes
	if repartition {
		stats.Messages *= 2
		stats.Bytes *= 2
	}
	return stats
}
