package trace

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"
)

// ErrBadCSV reports malformed CSV trace input.
var ErrBadCSV = errors.New("trace: malformed CSV")

// SaveCSV writes the dataset as CSV with the schema
//
//	time,node,<resource0>,<resource1>,...
//
// one row per (step, node), steps and nodes ascending. The format is the
// interchange point for running the pipeline on real Alibaba / Bitbrains /
// Google trace extractions.
func SaveCSV(w io.Writer, d *Dataset) error {
	cw := csv.NewWriter(w)
	header := append([]string{"time", "node"}, d.Resources...)
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("trace: writing header: %w", err)
	}
	row := make([]string, len(header))
	for t := 0; t < d.Steps(); t++ {
		for i := 0; i < d.Nodes(); i++ {
			row[0] = strconv.Itoa(t)
			row[1] = strconv.Itoa(i)
			for r, v := range d.Data[t][i] {
				row[2+r] = strconv.FormatFloat(v, 'g', -1, 64)
			}
			if err := cw.Write(row); err != nil {
				return fmt.Errorf("trace: writing row t=%d node=%d: %w", t, i, err)
			}
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("trace: flushing CSV: %w", err)
	}
	return nil
}

// LoadCSV parses a dataset written by SaveCSV (or an equivalent extraction
// of a real trace). Rows may arrive in any order but the (time, node) pairs
// must form a dense grid starting at zero.
func LoadCSV(r io.Reader, name string) (*Dataset, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if len(header) < 3 || header[0] != "time" || header[1] != "node" {
		return nil, fmt.Errorf("trace: header %v, want time,node,<resources...>: %w", header, ErrBadCSV)
	}
	resources := append([]string(nil), header[2:]...)
	nRes := len(resources)

	// Rows are parsed in arrival order, values into one flat array and
	// their (time, node) pairs beside it, then scattered into place.
	var vals []float64
	var cells [][2]int
	maxT, maxNode := -1, -1
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		if len(rec) != 2+nRes {
			return nil, fmt.Errorf("trace: line %d has %d fields, want %d: %w",
				line, len(rec), 2+nRes, ErrBadCSV)
		}
		t, err := strconv.Atoi(rec[0])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d time %q: %w", line, rec[0], ErrBadCSV)
		}
		node, err := strconv.Atoi(rec[1])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d node %q: %w", line, rec[1], ErrBadCSV)
		}
		if t < 0 || node < 0 {
			return nil, fmt.Errorf("trace: line %d negative index: %w", line, ErrBadCSV)
		}
		for i := 0; i < nRes; i++ {
			v, err := strconv.ParseFloat(rec[2+i], 64)
			if err != nil {
				return nil, fmt.Errorf("trace: line %d value %q: %w", line, rec[2+i], ErrBadCSV)
			}
			vals = append(vals, v)
		}
		cells = append(cells, [2]int{t, node})
		maxT = max(maxT, t)
		maxNode = max(maxNode, node)
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("trace: no data rows: %w", ErrBadCSV)
	}
	steps, nodes, n := maxT+1, maxNode+1, len(cells)
	// Compared by division first, so a huge index cannot overflow steps·nodes.
	if nodes > n || steps > n/nodes || steps*nodes != n {
		return nil, fmt.Errorf("trace: %d rows do not fill %d×%d grid: %w",
			n, steps, nodes, ErrBadCSV)
	}
	data := newFrame(steps, nodes, nRes)
	seen := make([]bool, n)
	for k, c := range cells {
		if seen[c[0]*nodes+c[1]] {
			return nil, fmt.Errorf("trace: duplicate cell t=%d node=%d: %w", c[0], c[1], ErrBadCSV)
		}
		seen[c[0]*nodes+c[1]] = true
		copy(data[c[0]][c[1]], vals[k*nRes:])
	}
	return &Dataset{Name: name, Resources: resources, Data: data}, nil
}
