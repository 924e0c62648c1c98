package serve

import (
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"

	"orcf/internal/core"
	"orcf/internal/parallel"
)

func (s *Server) handleForecast(w http.ResponseWriter, r *http.Request) {
	snap := s.snapshotOr503(w)
	if snap == nil {
		return
	}
	query := r.URL.Query()
	h := 1
	if q := query.Get("h"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil {
			writeError(w, http.StatusBadRequest, "h must be an integer")
			return
		}
		h = v
	}
	if maxH := s.horizonCap(snap); h < 1 || h > maxH {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("h must be in [1, %d]", maxH))
		return
	}
	// The filter takes a stable node ID, which survives fleet churn. A
	// malformed, unknown or still-warming node is rejected before the
	// readiness check, so the answer says what is wrong with the request.
	node, slot := -1, -1
	if q := query.Get("node"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil {
			writeError(w, http.StatusBadRequest, "node must be an integer (stable node ID)")
			return
		}
		sl, ok := snap.SlotOf(v)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Sprintf("node %d unknown", v))
			return
		}
		if snap.WindowFill(sl) == 0 {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable,
				fmt.Sprintf("node %d is warming up (no look-back presence yet)", v))
			return
		}
		node, slot = v, sl
	}
	if !snap.Ready() {
		writeError(w, http.StatusServiceUnavailable,
			fmt.Sprintf("models not trained yet (step %d)", snap.Steps()))
		return
	}

	if node >= 0 {
		// One node costs that node's look-back scan, whatever the fleet size.
		writeForecast(w, snap, snap.PlanNode(slot), h, node, nil, []int{slot}, 1)
		return
	}
	// Full-fleet response: include the live members whose forecasts are
	// defined (NaN rows — warming joiners — are omitted; tombstoned slots
	// always are), keyed by the Nodes list of stable IDs.
	plan, built := snap.Plan(s.cfg.Workers)
	s.cache.observe(built)
	roster := snap.Roster()
	ids := make([]int, 0, roster.Live())
	slots := make([]int, 0, roster.Live())
	for i := 0; i < snap.Nodes(); i++ {
		id, live := roster.IDAt(i)
		if !live || math.IsNaN(plan.At(i, 0, 0)) {
			continue
		}
		ids = append(ids, id)
		slots = append(slots, i)
	}
	writeForecast(w, snap, plan, h, -1, ids, slots, s.cfg.Workers)
}

// bufSize is the capacity the pooled body buffers start with, and
// taskValues how many forecast values one formatting task covers: at up to
// ~21 bytes a value a task's output stays under bufSize — large enough to
// amortise the hand-off and the Write call, small enough that a fleet
// response never holds more than one such buffer per worker.
const (
	bufSize    = 64 << 10
	taskValues = 2048
)

// bodyBufs recycles the body buffers.
var bodyBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, bufSize)
	return &b
}}

// writeForecast streams a ForecastResponse for horizons 1..h straight from
// the plan — entry e of every horizon is slots[e] — with the bytes
// json.NewEncoder(w).Encode would produce for the equivalent struct (Node
// set when node ≥ 0, Nodes = ids, non-finite values fenced to 0), without
// building the [h][entry][resource] tensor or a whole-body buffer. A failed
// Write means the client went away; the rest of the body is dropped.
func writeForecast(w http.ResponseWriter, snap *core.Snapshot, plan *core.ForecastPlan, h, node int, ids, slots []int, workers int) {
	w.Header().Set("Content-Type", "application/json")
	resources := snap.Resources()
	rows := h * len(slots)
	perTask := max(1, taskValues/resources)

	buf := bodyBufs.Get().(*[]byte)
	b := (*buf)[:0]
	b = append(b, `{"generation":`...)
	b = strconv.AppendUint(b, snap.Generation(), 10)
	b = append(b, `,"step":`...)
	b = strconv.AppendInt(b, int64(snap.Steps()), 10)
	b = append(b, `,"horizon":`...)
	b = strconv.AppendInt(b, int64(h), 10)
	if node >= 0 {
		b = append(b, `,"node":`...)
		b = strconv.AppendInt(b, int64(node), 10)
	}
	var err error
	if len(ids) > 0 {
		b = append(b, `,"nodes":[`...)
		for e, id := range ids {
			if e > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(id), 10)
			if len(b) >= bufSize-32 && err == nil {
				_, err = w.Write(b)
				b = b[:0]
			}
		}
		b = append(b, ']')
	}
	b = append(b, `,"forecast":[`...)
	small := rows <= perTask
	if small {
		// A small body (every ?node= response) is one buffer and one Write.
		if rows == 0 {
			// No entry has a forecast: h empty horizon arrays.
			for hi := 0; hi < h; hi++ {
				if hi > 0 {
					b = append(b, ',')
				}
				b = append(b, "[]"...)
			}
		}
		b = appendRows(b, plan, slots, resources, 0, rows)
		b = append(b, "]}\n"...)
	}
	if err == nil {
		_, err = w.Write(b)
	}
	*buf = b
	bodyBufs.Put(buf)
	if !small && err == nil {
		streamRows(w, plan, slots, resources, rows, perTask, workers)
	}
}

// streamRows writes the rows of a large body and its closing "]}\n": the rows
// are cut into tasks of perTask rows that up to workers goroutines format
// side by side, one pooled buffer each, a wave at a time, and each wave is
// written in order.
func streamRows(w http.ResponseWriter, plan *core.ForecastPlan, slots []int, resources, rows, perTask, workers int) {
	tasks := (rows + perTask - 1) / perTask
	bufs := make([]*[]byte, min(parallel.Workers(workers), tasks))
	for k := range bufs {
		bufs[k] = bodyBufs.Get().(*[]byte)
	}
	var err error
	for start := 0; start < tasks && err == nil; start += len(bufs) {
		wave := min(len(bufs), tasks-start)
		// Formatting cannot fail, so neither can the fan-out.
		_ = parallel.ForEach(len(bufs), wave, func(k int) error {
			lo := (start + k) * perTask
			b := appendRows((*bufs[k])[:0], plan, slots, resources, lo, min(lo+perTask, rows))
			if start+k == tasks-1 {
				b = append(b, "]}\n"...)
			}
			*bufs[k] = b
			return nil
		})
		for k := 0; k < wave && err == nil; k++ {
			_, err = w.Write(*bufs[k])
		}
	}
	for _, buf := range bufs {
		bodyBufs.Put(buf)
	}
}

// appendRows appends rows [lo, end) of the h·len(slots) row sequence —
// row i is entry i mod len(slots) of horizon i div len(slots), written
// [v,…] — with the separators and horizon brackets that fall between them.
func appendRows(b []byte, plan *core.ForecastPlan, slots []int, resources, lo, end int) []byte {
	n := len(slots)
	for i := lo; i < end; i++ {
		hi, e := i/n, i%n
		switch {
		case e > 0:
			b = append(b, ',')
		case hi > 0:
			b = append(b, ",["...)
		default:
			b = append(b, '[')
		}
		b = append(b, '[')
		for r := 0; r < resources; r++ {
			if r > 0 {
				b = append(b, ',')
			}
			b = appendJSONFloat(b, plan.At(slots[e], r, hi))
		}
		b = append(b, ']')
		if e == n-1 {
			b = append(b, ']')
		}
	}
	return b
}

// appendJSONFloat appends v as encoding/json writes a float64 — shortest
// round-trip digits, ES6 style: plain decimals except below 1e-6 or from
// 1e21, where the exponent form is used with its exponent unpadded — after
// fencing NaN/±Inf to 0 (see Finite64), which encoding/json would refuse.
func appendJSONFloat(b []byte, v float64) []byte {
	f := Finite64(v)
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// clean up e-09 to e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
