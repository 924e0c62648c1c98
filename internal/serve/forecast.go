package serve

import (
	"fmt"
	"io"
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

	plan := snap.Plan()
	if node >= 0 {
		// One node is a row lookup in the published plan, whatever the
		// fleet size.
		writeForecast(w, snap, plan, h, node, nil, []int{slot}, 1)
		return
	}
	// Full-fleet response: include the live members whose forecasts are
	// defined (NaN rows — warming joiners — are omitted; tombstoned slots
	// always are), keyed by the Nodes list of stable IDs.
	s.cache.observe()
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
	writeForecast(w, snap, plan, h, -1, ids, slots, snap.Workers())
}

// bufSize is the capacity the pooled body buffers start with, and
// taskValues how many forecast values one formatting task covers: at up to
// ~21 bytes a value a task's output stays under bufSize — large enough to
// amortise the hand-off and the Write call, small enough that a fleet
// response holds at most two such buffers per worker (see streamTasks).
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
	if small || err != nil {
		return
	}
	// A large body's rows, and its closing "]}\n", go out in tasks of
	// perTask rows.
	tasks := (rows + perTask - 1) / perTask
	streamTasks(w, tasks, workers, func(b []byte, t int) []byte {
		lo := t * perTask
		b = appendRows(b, plan, slots, resources, lo, min(lo+perTask, rows))
		if t == tasks-1 {
			b = append(b, "]}\n"...)
		}
		return b
	})
}

// streamTasks writes tasks 0…tasks−1 to w in order, task t being what
// format appends for it to an empty pooled buffer. With one worker the
// caller formats and writes each task inline with one pooled buffer, so
// Workers = 1 stays the serial escape hatch. Otherwise there is one fan-out
// for the whole body: up to workers goroutines format into a ring of
// 2·workers pooled buffers, task t into entry t mod len(ring), while the
// caller writes the finished tasks in order. The caller hands out the task
// numbers, and hands out t+len(ring) only after writing t, so an entry
// holds one task at a time and no task overtakes the one it follows in its
// entry. A failed Write stops the writing and the hand-out.
func streamTasks(w io.Writer, tasks, workers int, format func(b []byte, t int) []byte) {
	nw := min(parallel.Workers(workers), tasks)
	if nw == 1 {
		buf := bodyBufs.Get().(*[]byte)
		for t := 0; t < tasks; t++ {
			*buf = format((*buf)[:0], t)
			if _, err := w.Write(*buf); err != nil {
				break
			}
		}
		bodyBufs.Put(buf)
		return
	}

	// todo carries the handed-out task numbers in increasing order, at most
	// len(ring) of them, and an entry's done each task formatted into it.
	type entry struct {
		buf  *[]byte
		done chan struct{}
	}
	ring := make([]entry, min(2*nw, tasks))
	todo := make(chan int, len(ring))
	for k := range ring {
		ring[k] = entry{bodyBufs.Get().(*[]byte), make(chan struct{}, 1)}
		todo <- k
	}
	var wg sync.WaitGroup
	wg.Add(nw)
	for range nw {
		go func() {
			defer wg.Done()
			for t := range todo {
				e := &ring[t%len(ring)]
				*e.buf = format((*e.buf)[:0], t)
				e.done <- struct{}{}
			}
		}()
	}
	for t := 0; t < tasks; t++ {
		e := &ring[t%len(ring)]
		<-e.done
		if _, err := w.Write(*e.buf); err != nil {
			break
		}
		if next := t + len(ring); next < tasks {
			todo <- next
		}
	}
	close(todo)
	for range todo {
		// After a failed Write, drop the tasks no worker has taken yet.
	}
	wg.Wait()
	for _, e := range ring {
		bodyBufs.Put(e.buf)
	}
}

// appendRows appends rows [lo, end) of the h·len(slots) row sequence —
// row i is entry i mod len(slots) of horizon i div len(slots), written
// [v,…] — with the separators and horizon brackets that fall between them.
func appendRows(b []byte, plan *core.ForecastPlan, slots []int, resources, lo, end int) []byte {
	var row [4]float64 // d ≤ 4 rows stay on the stack
	vals := row[:]
	if resources > len(row) {
		vals = make([]float64, resources)
	}
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
		for r, v := range plan.Row(slots[e], hi, vals) {
			if r > 0 {
				b = append(b, ',')
			}
			b = appendJSONFloat(b, v)
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
// +0, 1 and [1e-6, 1) — what a clamped plan emits, bar the rare value in
// (0, 1e-6) — are written directly, the last through the Ryū specialised to
// that range in appendUnitFloat; everything else, including the negatives
// and values above 1 that only the clamp ablation serves, goes through
// strconv.
func appendJSONFloat(b []byte, v float64) []byte {
	f := Finite64(v)
	if 1e-6 <= f && f < 1 {
		return appendUnitFloat(b, math.Float64bits(f))
	}
	if f == 1 {
		return append(b, '1')
	}
	if math.Float64bits(f) == 0 { // +0 only: -0 is written "-0"
		return append(b, '0')
	}
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
