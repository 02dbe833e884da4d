package partition

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"columnsgd/internal/dataset"
	"columnsgd/internal/vec"
)

func genData(t *testing.T, n, m int, seed int64) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Generate(dataset.SyntheticSpec{
		Name: "t", N: n, Features: m, NNZPerRow: maxInt(1, m/8), Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestDispatchBuildsCompleteStores(t *testing.T) {
	ds := genData(t, 23, 16, 1)
	s, _ := NewRoundRobin(16, 3)
	stores, stats, err := Dispatch(ds, s, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantBlocks := 5 // ceil(23/5)
	if stats.Blocks != wantBlocks {
		t.Fatalf("blocks = %d, want %d", stats.Blocks, wantBlocks)
	}
	if stats.Messages != int64(wantBlocks*3) {
		t.Fatalf("messages = %d, want %d", stats.Messages, wantBlocks*3)
	}
	for w, st := range stores {
		if st.NumBlocks() != wantBlocks {
			t.Fatalf("worker %d has %d blocks", w, st.NumBlocks())
		}
		if st.Rows() != ds.N() {
			t.Fatalf("worker %d has %d rows, want %d", w, st.Rows(), ds.N())
		}
	}
}

func TestDispatchRejectsBadBlockSize(t *testing.T) {
	ds := genData(t, 5, 8, 1)
	s, _ := NewRange(8, 2)
	if _, _, err := Dispatch(ds, s, 0, nil); err == nil {
		t.Fatal("blockSize 0 accepted")
	}
	if _, _, err := NaiveDispatch(ds, s, -1, nil); err == nil {
		t.Fatal("naive blockSize -1 accepted")
	}
}

// reassemble reconstructs the original dataset from the per-worker stores.
func reassemble(t *testing.T, stores []*Store, s Scheme, ds *dataset.Dataset, blockSize int) {
	t.Helper()
	for i := range ds.Points {
		blockID := i / blockSize
		offset := i % blockSize
		got := make([]float64, ds.NumFeatures)
		for w, st := range stores {
			ws, ok := st.Get(blockID)
			if !ok {
				t.Fatalf("worker %d missing block %d", w, blockID)
			}
			if ws.Labels[offset] != ds.Points[i].Label {
				t.Fatalf("label mismatch row %d worker %d", i, w)
			}
			row := ws.Data.Row(offset)
			for k, l := range row.Indices {
				got[s.Global(w, l)] = row.Values[k]
			}
		}
		want := ds.Points[i].Features.ToDense(ds.NumFeatures)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("row %d feature %d: got %v want %v", i, j, got[j], want[j])
			}
		}
	}
}

// The central dispatch correctness property: block dispatch, for every
// scheme, losslessly reconstructs the dataset.
func TestDispatchRoundTripAllSchemes(t *testing.T) {
	ds := genData(t, 37, 20, 2)
	for _, s := range allSchemes(t, 20, 4) {
		stores, _, err := Dispatch(ds, s, 10, nil)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		reassemble(t, stores, s, ds, 10)
	}
}

// Naive dispatch must produce byte-identical stores to block dispatch.
func TestNaiveDispatchEquivalence(t *testing.T) {
	ds := genData(t, 29, 12, 3)
	s, _ := NewRoundRobin(12, 3)
	blockStores, blockStats, err := Dispatch(ds, s, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	naiveStores, naiveStats, err := NaiveDispatch(ds, s, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	for w := range blockStores {
		b, n := blockStores[w], naiveStores[w]
		if b.NumBlocks() != n.NumBlocks() || b.Rows() != n.Rows() {
			t.Fatalf("worker %d: structure mismatch", w)
		}
		for _, id := range b.Blocks() {
			bw, _ := b.Get(id)
			nw, _ := n.Get(id)
			if bw.Data.Rows() != nw.Data.Rows() {
				t.Fatalf("worker %d block %d row mismatch", w, id)
			}
			for r := 0; r < bw.Data.Rows(); r++ {
				if !bw.Data.Row(r).Equal(nw.Data.Row(r)) {
					t.Fatalf("worker %d block %d row %d differs", w, id, r)
				}
			}
		}
	}
	// Naive sends K messages per row; block sends K per block.
	if naiveStats.Messages != int64(ds.N()*3) {
		t.Fatalf("naive messages = %d", naiveStats.Messages)
	}
	if naiveStats.Messages <= blockStats.Messages {
		t.Fatalf("naive (%d msgs) should exceed block (%d msgs)", naiveStats.Messages, blockStats.Messages)
	}
}

func TestDispatchDeliverHookAndErrors(t *testing.T) {
	ds := genData(t, 10, 8, 4)
	s, _ := NewRange(8, 2)
	calls := 0
	_, _, err := Dispatch(ds, s, 5, func(dst int, w *Workset) error {
		calls++
		if err := w.Validate(); err != nil {
			t.Fatalf("invalid workset delivered: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 4 { // 2 blocks × 2 workers
		t.Fatalf("deliver called %d times", calls)
	}

	boom := func(dst int, w *Workset) error { return errBoom }
	if _, _, err := Dispatch(ds, s, 5, boom); err == nil {
		t.Fatal("deliver error swallowed")
	}
}

// TestDispatchStreamDeliverKeepsNoStores: with a deliver hook the master
// keeps no copy of the dataset (the stores come back nil), yet every
// workset is still validated before it is handed over.
func TestDispatchStreamDeliverKeepsNoStores(t *testing.T) {
	ds := genData(t, 10, 8, 4)
	s, _ := NewRange(8, 2)
	delivered := 0
	stores, stats, err := Dispatch(ds, s, 4, func(int, *Workset) error { delivered++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if stores != nil {
		t.Fatalf("deliver given, yet %d stores were built", len(stores))
	}
	if delivered != 6 || stats.Messages != 6 || stats.Rows != 10 { // 3 blocks × 2 workers
		t.Fatalf("delivered %d, stats %+v", delivered, stats)
	}
	if stores, _, err := Dispatch(ds, s, 4, nil); err != nil || len(stores) != 2 || stores[0].Rows() != 10 {
		t.Fatalf("without deliver: %v stores, %v", stores, err)
	}

	bad := &dataset.Dataset{NumFeatures: 8, Points: []dataset.Point{
		{Label: 1, Features: vec.Sparse{Indices: []int32{1, 6}, Values: []float64{1, math.NaN()}}},
	}}
	delivered = 0
	if _, _, err := Dispatch(bad, s, 4, func(int, *Workset) error { delivered++; return nil }); err == nil {
		t.Fatal("non-finite workset accepted")
	}
	if delivered != 1 { // worker 0's half is finite; worker 1's is not
		t.Fatalf("delivered %d worksets, want 1", delivered)
	}
}

type boomErr struct{}

func (boomErr) Error() string { return "boom" }

var errBoom = boomErr{}

func TestWorksetValidate(t *testing.T) {
	csr := vec.NewCSR(4, 1)
	_ = csr.AppendRow(vec.Sparse{Indices: []int32{1}, Values: []float64{1}})
	good := &Workset{BlockID: 0, Labels: []float64{1}, Data: csr}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Workset{BlockID: 0, Labels: []float64{1, -1}, Data: csr}
	if err := bad.Validate(); err == nil {
		t.Fatal("label/row mismatch accepted")
	}
}

func TestStorePutReplaces(t *testing.T) {
	st := NewStore()
	mk := func(rows int) *Workset {
		csr := vec.NewCSR(4, rows)
		labels := make([]float64, rows)
		for i := 0; i < rows; i++ {
			_ = csr.AppendRow(vec.Sparse{})
			labels[i] = 1
		}
		return &Workset{BlockID: 7, Labels: labels, Data: csr}
	}
	if err := st.Put(mk(3)); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(mk(5)); err != nil {
		t.Fatal(err)
	}
	if st.Rows() != 5 || st.NumBlocks() != 1 {
		t.Fatalf("rows=%d blocks=%d after replace", st.Rows(), st.NumBlocks())
	}
}

func TestStoreMetaSorted(t *testing.T) {
	st := NewStore()
	for _, id := range []int{5, 1, 3} {
		csr := vec.NewCSR(2, 1)
		_ = csr.AppendRow(vec.Sparse{})
		if err := st.Put(&Workset{BlockID: id, Labels: []float64{1}, Data: csr}); err != nil {
			t.Fatal(err)
		}
	}
	meta := st.Meta()
	if len(meta) != 3 || meta[0].ID != 1 || meta[1].ID != 3 || meta[2].ID != 5 {
		t.Fatalf("meta = %+v", meta)
	}
	if st.SizeBytes() <= 0 {
		t.Fatal("SizeBytes should be positive")
	}
}

func TestRowDispatchStats(t *testing.T) {
	ds := genData(t, 20, 10, 5)
	plain := RowDispatchStats(ds, 4, false)
	repart := RowDispatchStats(ds, 4, true)
	if plain.Messages != 20 {
		t.Fatalf("plain messages = %d", plain.Messages)
	}
	if repart.Messages != 40 || repart.Bytes != 2*plain.Bytes {
		t.Fatalf("repartition should double traffic: %+v vs %+v", repart, plain)
	}
}

// Property: block dispatch conserves total non-zeros and bytes are
// consistent with the stores' contents for any block size and K.
func TestPropertyDispatchConservesNNZ(t *testing.T) {
	f := func(seed int64, kRaw, bsRaw uint8) bool {
		k := int(kRaw)%5 + 1
		bs := int(bsRaw)%9 + 1
		ds, err := dataset.Generate(dataset.SyntheticSpec{
			Name: "p", N: 31, Features: 24, NNZPerRow: 4, Seed: seed,
		})
		if err != nil {
			return false
		}
		s, err := NewRoundRobin(24, k)
		if err != nil {
			return false
		}
		stores, _, err := Dispatch(ds, s, bs, nil)
		if err != nil {
			return false
		}
		var nnz int64
		for _, st := range stores {
			for _, id := range st.Blocks() {
				w, _ := st.Get(id)
				nnz += int64(w.Data.NNZ())
			}
		}
		return nnz == ds.NNZ()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDispatchBytesShape(t *testing.T) {
	// Block dispatch should move fewer or equal bytes than naive (CSR
	// amortizes per-row headers) and drastically fewer messages.
	ds := genData(t, 200, 64, 6)
	s, _ := NewRoundRobin(64, 4)
	_, blockStats, err := Dispatch(ds, s, 50, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, naiveStats, err := NaiveDispatch(ds, s, 50, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(naiveStats.Messages) / float64(blockStats.Messages); ratio < 10 {
		t.Fatalf("message amplification only %.1f×", ratio)
	}
	if blockStats.Bytes <= 0 || naiveStats.Bytes <= 0 {
		t.Fatal("byte accounting missing")
	}
	if math.IsNaN(float64(blockStats.Bytes)) {
		t.Fatal("NaN bytes")
	}
}

// splitBlockOracle is SplitBlock as it was: SplitRow per row, then
// AppendRow into growing CSRs.
func splitBlockOracle(blk *dataset.Block, s Scheme) ([]*Workset, error) {
	k := s.NumWorkers()
	labels := make([]float64, len(blk.Points))
	csrs := make([]*vec.CSR, k)
	for w := 0; w < k; w++ {
		csrs[w] = vec.NewCSR(int32(s.PartSize(w)), len(blk.Points))
	}
	for i := range blk.Points {
		labels[i] = blk.Points[i].Label
		parts := SplitRow(blk.Points[i].Features, s)
		for w := 0; w < k; w++ {
			if err := csrs[w].AppendRow(parts[w]); err != nil {
				return nil, fmt.Errorf("partition: block %d row %d worker %d: %w", blk.ID, i, w, err)
			}
		}
	}
	out := make([]*Workset, k)
	for w := 0; w < k; w++ {
		out[w] = &Workset{BlockID: blk.ID, Labels: labels, Data: csrs[w]}
	}
	return out, nil
}

// TestSplitBlockMatchesOracle: the single-pass split builds the same
// worksets (nil-ness of empty slices included) and the same error as
// splitting row by row, under every scheme.
func TestSplitBlockMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	rejected := 0
	for trial := 0; trial < 60; trial++ {
		m, k := 5+r.Intn(60), 1+r.Intn(4)
		ds := genData(t, 1+r.Intn(40), m, int64(trial))
		if trial%3 == 0 { // a row past the scheme's dimension
			ds.Points[r.Intn(ds.N())].Features = vec.Sparse{Indices: []int32{0, int32(m + r.Intn(9))}, Values: []float64{1, 2}}
		}
		if trial%4 == 1 { // rows with no features
			ds.Points[0].Features = vec.Sparse{}
		}
		schemes := []func(int, int) (Scheme, error){
			func(m, k int) (Scheme, error) { return NewRange(m, k) },
			func(m, k int) (Scheme, error) { return NewRoundRobin(m, k) },
			func(m, k int) (Scheme, error) { return NewHash(m, k) },
		}
		for si, mk := range schemes {
			if si == 2 && trial%3 == 0 {
				continue // HashScheme.Local indexes a table of m entries
			}
			s, err := mk(m, k)
			if err != nil {
				t.Fatal(err)
			}
			blk := &dataset.Block{ID: trial, Points: ds.Points}
			got, gotErr := SplitBlock(blk, s)
			want, wantErr := splitBlockOracle(blk, s)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("trial %d scheme %d: error %v, oracle %v", trial, si, gotErr, wantErr)
			}
			if wantErr != nil {
				rejected++
				continue
			}
			for w := range want {
				g, o := *got[w].Data, *want[w].Data
				if !reflect.DeepEqual(got[w].Labels, want[w].Labels) || !reflect.DeepEqual(g.IndPtr, o.IndPtr) ||
					!reflect.DeepEqual(g.Indices, o.Indices) || !reflect.DeepEqual(g.Values, o.Values) || g.Cols != o.Cols {
					t.Fatalf("trial %d scheme %d worker %d: workset differs from the oracle", trial, si, w)
				}
			}
		}
	}
	if rejected == 0 {
		t.Fatal("no trial hit the column-bound error")
	}
}
