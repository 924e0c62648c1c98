package mat

import "fmt"

// Frame is a struct-of-arrays dense N×d float64 frame: one flat row-major
// backing array with zero-copy row views. It is the hot-loop layout of the
// pipeline — K-means scratch, the cluster tracker's presence-masked packing,
// and core.System's step staging all read and write through a Frame so the
// innermost distance and copy loops walk contiguous memory instead of
// chasing [][]float64 row pointers.
//
// Frame.Row returns a view, not a copy: mutations through a row view are
// visible in Data and vice versa. A Frame is not safe for concurrent
// mutation.
type Frame struct {
	rows, cols int
	data       []float64
}

// NewFrame returns a zeroed rows×cols frame.
func NewFrame(rows, cols int) *Frame {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative frame dimension %d×%d", rows, cols))
	}
	return &Frame{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// Cols returns the number of columns.
func (f *Frame) Cols() int { return f.cols }

// Data returns the flat row-major backing array (length rows × Cols). Writes
// through it are visible to row views and vice versa.
func (f *Frame) Data() []float64 { return f.data }

// Row returns a capacity-clamped zero-copy view of row i: appending to the
// view can never bleed into the next row.
func (f *Frame) Row(i int) []float64 {
	if i < 0 || i >= f.rows {
		panic(fmt.Sprintf("mat: frame row %d out of bounds for %d×%d", i, f.rows, f.cols))
	}
	return f.data[i*f.cols : (i+1)*f.cols : (i+1)*f.cols]
}

// SetRow copies v into row i; v must have exactly Cols values.
func (f *Frame) SetRow(i int, v []float64) {
	if len(v) != f.cols {
		panic(fmt.Sprintf("mat: frame SetRow length %d != cols %d", len(v), f.cols))
	}
	copy(f.data[i*f.cols:(i+1)*f.cols], v)
}

// Grow extends the frame to at least rows rows in place, preserving existing
// values and zeroing the new rows. Growing may reallocate the backing array,
// which invalidates previously taken Data slices and row views — callers
// must re-take them. Shrinking is not supported (fewer rows than the frame
// has is a no-op).
func (f *Frame) Grow(rows int) {
	if rows <= f.rows {
		return
	}
	need := rows * f.cols
	if cap(f.data) >= need {
		old := len(f.data)
		f.data = f.data[:need]
		clear(f.data[old:])
	} else {
		nd := make([]float64, need)
		copy(nd, f.data)
		f.data = nd
	}
	f.rows = rows
}
