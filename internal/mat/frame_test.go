package mat

import "testing"

func TestFrameRowViewsAlias(t *testing.T) {
	f := NewFrame(3, 2)
	f.SetRow(1, []float64{4, 5})
	row := f.Row(1)
	if row[0] != 4 || row[1] != 5 {
		t.Fatalf("row view = %v, want [4 5]", row)
	}
	// Writes through the view land in the flat backing and vice versa.
	row[0] = 7
	if got := f.Data()[1*2+0]; got != 7 {
		t.Fatalf("data after view write = %v, want 7", got)
	}
	f.Data()[1*2+1] = 9
	if row[1] != 9 {
		t.Fatalf("view after data write = %v, want 9", row[1])
	}
	// Row views are capacity-clamped: appending must not bleed into row 2.
	_ = append(row, 123)
	if got := f.Data()[2*2+0]; got != 0 {
		t.Fatalf("append through row view bled into next row: %v", got)
	}
}

func TestFrameGrowPreservesAndZeroes(t *testing.T) {
	f := NewFrame(2, 3)
	f.SetRow(0, []float64{1, 2, 3})
	f.SetRow(1, []float64{4, 5, 6})
	f.Grow(4)
	if f.rows != 4 || f.Cols() != 3 || len(f.Data()) != 12 {
		t.Fatalf("after grow: %d×%d data %d", f.rows, f.Cols(), len(f.Data()))
	}
	want := []float64{1, 2, 3, 4, 5, 6, 0, 0, 0, 0, 0, 0}
	for i, v := range f.Data() {
		if v != want[i] {
			t.Fatalf("data[%d] = %v, want %v", i, v, want[i])
		}
	}
	// Growing within capacity must zero the recycled region too.
	g := NewFrame(0, 2)
	g.Grow(2)
	g.SetRow(0, []float64{8, 8})
	g.SetRow(1, []float64{8, 8})
	// Simulate shrink-free reuse: Grow is monotone, so re-grow a fresh frame
	// whose capacity was retained through the same backing.
	h := &Frame{rows: 1, cols: 2, data: g.Data()[:2]}
	h.Grow(2)
	if h.Data()[2] != 0 || h.Data()[3] != 0 {
		t.Fatalf("grow within capacity left stale values: %v", h.Data())
	}
}

func TestFramePanicsOnBadIndex(t *testing.T) {
	f := NewFrame(2, 2)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("Row(-1)", func() { f.Row(-1) })
	mustPanic("Row(2)", func() { f.Row(2) })
	mustPanic("SetRow short", func() { f.SetRow(0, []float64{1}) })
	mustPanic("NewFrame negative", func() { NewFrame(-1, 2) })
}
