package serve

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"

	"orcf/internal/core"
)

func (s *Server) handleForecast(w http.ResponseWriter, r *http.Request) {
	snap := s.snapshotOr503(w)
	if snap == nil {
		return
	}
	h := 1
	if q := queryGet(r.URL.RawQuery, "h"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil {
			writeError(w, http.StatusBadRequest, "h must be an integer")
			return
		}
		h = v
	}
	if maxH := snap.MaxHorizon(); h < 1 || h > maxH {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("h must be in [1, %d]", maxH))
		return
	}
	// The filter takes a stable node ID, which survives fleet churn. A
	// malformed, unknown or still-warming node is rejected before the
	// readiness check, so the answer says what is wrong with the request.
	node, slot := -1, -1
	if q := queryGet(r.URL.RawQuery, "node"); q != "" {
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
		// One node is a row lookup in the published plan, whatever the
		// fleet size.
		writeNodeForecast(w, snap, h, node, slot)
		return
	}
	// Full-fleet response: include the live members whose forecasts are
	// defined (NaN rows — warming joiners — are omitted; tombstoned slots
	// always are), keyed by the Nodes list of stable IDs.
	s.cache.observe()
	plan, roster := snap.Plan(), snap.Roster()
	slots := slotLists.Get().(*[]int)
	body := forecastBody{
		plan: plan, roster: roster, h: h,
		resources: snap.Resources(), perTask: max(1, taskValues/snap.Resources()),
		slots: (*slots)[:0],
	}
	for i := 0; i < snap.Nodes(); i++ {
		if _, live := roster.IDAt(i); live && !math.IsNaN(plan.At(i, 0, 0)) {
			body.slots = append(body.slots, i)
		}
	}
	body.write(w, snap)
	*slots = body.slots
	slotLists.Put(slots)
}

// slotLists recycles the fleet bodies' slot lists, one per request in
// flight.
var slotLists = sync.Pool{New: func() any { return new([]int) }}

// bufSize is the capacity the pooled body buffers start with, and
// taskValues how many forecast values one formatting task covers: at up to
// jsonFloatRoom+1 bytes a value a task's output stays under bufSize — large
// enough to amortise the hand-off and the Write call, small enough that a
// fleet response holds at most two such buffers per worker (see
// streamTasks).
const (
	bufSize    = 64 << 10
	taskValues = 2048
)

// bodyBufs recycles the body buffers.
var bodyBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, bufSize)
	return &b
}}

// appendHead appends the fields every ForecastResponse starts with.
func appendHead(b []byte, snap *core.Snapshot, h int) []byte {
	b = append(b, `{"generation":`...)
	b = strconv.AppendUint(b, snap.Generation(), 10)
	b = append(b, `,"step":`...)
	b = strconv.AppendInt(b, int64(snap.Steps()), 10)
	b = append(b, `,"horizon":`...)
	return strconv.AppendInt(b, int64(h), 10)
}

// writeNodeForecast writes a ?node= ForecastResponse for horizons 1..h —
// Node set, one entry per horizon, read off the published plan at slot —
// with the bytes json.NewEncoder(w).Encode would produce for the equivalent
// struct (non-finite values fenced to 0), in one buffer and one Write.
func writeNodeForecast(w http.ResponseWriter, snap *core.Snapshot, h, node, slot int) {
	w.Header().Set("Content-Type", "application/json")
	plan, resources := snap.Plan(), snap.Resources()
	buf := bodyBufs.Get().(*[]byte)
	b := appendHead((*buf)[:0], snap, h)
	b = append(b, `,"node":`...)
	b = strconv.AppendInt(b, int64(node), 10)
	b = append(b, `,"forecast":[`...)
	var row [4]float64 // d ≤ 4 rows stay on the stack
	vals := row[:]
	if resources > len(row) {
		vals = make([]float64, resources)
	}
	b, pos := room(b, h*(rowRoom(resources)+3)+3)
	for hi := 0; hi < h; hi++ {
		if hi > 0 {
			b[pos] = ','
			pos++
		}
		b[pos] = '['
		pos = putRow(b, pos+1, plan.Row(slot, hi, vals))
		b[pos] = ']'
		pos++
	}
	pos += copy(b[pos:], "]}\n")
	b = b[:pos]
	_, _ = w.Write(b) // a failed Write means the client went away
	*buf = b
	bodyBufs.Put(buf)
}

// forecastBody is one full-fleet ForecastResponse for horizons 1..h being
// written straight from the plan, with the bytes json.NewEncoder(w).Encode
// would produce for the equivalent struct (Nodes = the entries' IDs,
// non-finite values fenced to 0), without building the [h][entry][resource]
// tensor or a whole-body buffer. Its entries are slots: the fleet's live
// slots whose forecast is defined, in slot order, cut into chunks of
// perTask.
type forecastBody struct {
	plan                  *core.ForecastPlan
	roster                *core.Roster
	slots                 []int
	h, resources, perTask int
	lists, chunks         int
}

// write streams the body. Its tasks are the Nodes list, a chunk of IDs
// each, then the forecast, a chunk of one horizon's rows each. A small body
// is one buffer and one Write; a large one is its head, then the tasks
// through streamTasks. A failed Write means the client went away; the rest
// of the body is dropped.
func (fb *forecastBody) write(w http.ResponseWriter, snap *core.Snapshot) {
	w.Header().Set("Content-Type", "application/json")
	buf := bodyBufs.Get().(*[]byte)
	b := appendHead((*buf)[:0], snap, fb.h)
	fb.chunks = (len(fb.slots) + fb.perTask - 1) / fb.perTask
	fb.lists = (fb.chunks + fb.resources - 1) / fb.resources
	if len(fb.slots) == 0 {
		// No entry has a forecast: no list and h empty horizon arrays.
		b = append(b, `,"forecast":[`...)
		for hi := 0; hi < fb.h; hi++ {
			if hi > 0 {
				b = append(b, ',')
			}
			b = append(b, "[]"...)
		}
		b = append(b, "]}\n"...)
	}
	tasks := fb.lists + fb.h*fb.chunks
	small := fb.h*len(fb.slots) <= fb.perTask
	if small {
		for t := 0; t < tasks; t++ {
			b = fb.task(b, t)
		}
	}
	_, err := w.Write(b)
	*buf = b
	bodyBufs.Put(buf)
	if small || err != nil {
		return
	}
	// The workers get a copy, so a small body's stays on the stack.
	shared := *fb
	streamTasks(w, tasks, shared.task)
}

// task appends task t of the body: chunk t of the Nodes list while t <
// lists, then chunk (t − lists) mod chunks of horizon (t − lists) div
// chunks's rows.
func (fb *forecastBody) task(b []byte, t int) []byte {
	if t < fb.lists {
		return fb.appendIDs(b, t)
	}
	t -= fb.lists
	return fb.appendRows(b, t/fb.chunks, t%fb.chunks)
}

// streamTasks writes tasks 0…tasks−1 to w in order, task t being what
// format appends for it to an empty pooled buffer. At GOMAXPROCS 1 the
// caller formats and writes each task inline with one pooled buffer.
// Otherwise there is one fan-out for the whole body: up to GOMAXPROCS
// goroutines format into a ring of two pooled buffers per goroutine, task t
// into entry t mod len(ring), while the caller writes the finished tasks in
// order. The caller hands out the task numbers, and hands out t+len(ring)
// only after writing t, so an entry holds one task at a time and no task
// overtakes the one it follows in its entry. A failed Write stops the
// writing and the hand-out.
func streamTasks(w io.Writer, tasks int, format func(b []byte, t int) []byte) {
	nw := min(runtime.GOMAXPROCS(0), tasks)
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
	fo := fanOuts.Get().(*fanOut)
	ring := fo.ring(min(2*nw, tasks))
	todo := make(chan int, len(ring))
	for k := range ring {
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
	for k := range ring {
		// A task a worker finished after a failed Write left its signal.
		select {
		case <-ring[k].done:
		default:
		}
	}
	fanOuts.Put(fo)
}

// fanOut is streamTasks' ring, kept whole between bodies: its entries'
// buffers and signal channels are reused, not taken and made per body.
type fanOut struct{ entries []ringEntry }

// ringEntry is one slot of the ring: the buffer a task is formatted into
// and the signal that it is done.
type ringEntry struct {
	buf  *[]byte
	done chan struct{}
}

// fanOuts recycles the rings, one per fleet body in flight.
var fanOuts = sync.Pool{New: func() any { return new(fanOut) }}

// ring returns the first n entries, creating the ones it has never had.
func (fo *fanOut) ring(n int) []ringEntry {
	for len(fo.entries) < n {
		fo.entries = append(fo.entries, ringEntry{bodyBufs.Get().(*[]byte), make(chan struct{}, 1)})
	}
	return fo.entries[:n]
}

// room extends b by n bytes to write into by index and returns it with the
// index the room starts at.
func room(b []byte, n int) ([]byte, int) {
	pos := len(b)
	return slices.Grow(b, n)[:pos+n], pos
}

// appendIDs appends chunk c of the Nodes list — the IDs of resources row
// chunks' entries, about as many numbers as a row chunk holds — opened by
// `,"nodes":[` in the first chunk and closed by `],"forecast":[` in the last.
func (fb *forecastBody) appendIDs(b []byte, c int) []byte {
	per := fb.perTask * fb.resources
	lo, end := c*per, min((c+1)*per, len(fb.slots))
	b, pos := room(b, (end-lo)*21+32)
	if c == 0 {
		pos += copy(b[pos:], `,"nodes":[`)
	}
	for e, slot := range fb.slots[lo:end] {
		if lo+e > 0 {
			b[pos] = ','
			pos++
		}
		id, _ := fb.roster.IDAt(slot)
		pos += len(strconv.AppendInt(b[pos:pos], int64(id), 10))
	}
	if end == len(fb.slots) {
		pos += copy(b[pos:], `],"forecast":[`)
	}
	return b[:pos]
}

// appendRows appends chunk c of horizon hi's rows, each written [v,…], with
// the separators and the horizon's brackets that fall among them, and the
// closing "]}\n" after the last horizon's last row. The room for the whole
// chunk is reserved once and the rows are written into it by index.
func (fb *forecastBody) appendRows(b []byte, hi, c int) []byte {
	lo, end := c*fb.perTask, min((c+1)*fb.perTask, len(fb.slots))
	b, pos := room(b, (end-lo)*(rowRoom(fb.resources)+2)+6)
	var row [4]float64 // d ≤ 4 rows stay on the stack
	vals := row[:]
	if fb.resources > len(row) {
		vals = make([]float64, fb.resources)
	}
	for e, slot := range fb.slots[lo:end] {
		switch {
		case lo+e > 0:
			b[pos] = ','
			pos++
		case hi > 0:
			b[pos], b[pos+1] = ',', '['
			pos += 2
		default:
			b[pos] = '['
			pos++
		}
		pos = putRow(b, pos, fb.plan.Row(slot, hi, vals))
	}
	if end == len(fb.slots) {
		b[pos] = ']'
		pos++
		if hi == fb.h-1 {
			pos += copy(b[pos:], "]}\n")
		}
	}
	return b[:pos]
}

// rowRoom is the room putRow needs for a row of n values.
func rowRoom(n int) int { return n*(jsonFloatRoom+1) + 1 }

// putRow writes vals into b at pos as the JSON array [v,…] and returns the
// index after it. b must have rowRoom(len(vals)) bytes of room at pos.
func putRow(b []byte, pos int, vals []float64) int {
	b[pos] = '['
	pos++
	for r, v := range vals {
		if r > 0 {
			b[pos] = ','
			pos++
		}
		pos = putJSONFloat(b, pos, v)
	}
	b[pos] = ']'
	return pos + 1
}

// jsonFloatRoom is the room putJSONFloat needs at its index: the longest
// value strconv writes is 25 bytes ("-0.0000012345678901234567"), and
// putUnitFloat writes into unitFloatRoom.
const jsonFloatRoom = max(25, unitFloatRoom)

// putJSONFloat writes v into b at pos as encoding/json writes a float64 —
// shortest round-trip digits, ES6 style: plain decimals except below 1e-6
// or from 1e21, where the exponent form is used with its exponent unpadded —
// after fencing NaN/±Inf to 0 (see Finite64), which encoding/json would
// refuse, and returns the index after it. b must have jsonFloatRoom bytes of
// room at pos. +0, 1 and [1e-6, 1) — what a clamped plan emits, bar the rare
// value in (0, 1e-6) — are written directly, the last through the Ryū
// specialised to that range in putUnitFloat; everything else, including -0
// and the negatives and values above 1 that no plan serves, goes through
// strconv.
func putJSONFloat(b []byte, pos int, v float64) int {
	f := Finite64(v)
	if 1e-6 <= f && f < 1 {
		return putUnitFloat(b, pos, math.Float64bits(f))
	}
	if f == 1 {
		b[pos] = '1'
		return pos + 1
	}
	if math.Float64bits(f) == 0 { // +0 only: -0 is written "-0"
		b[pos] = '0'
		return pos + 1
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	// The room makes strconv append in place.
	s := strconv.AppendFloat(b[pos:pos], f, format, -1, 64)
	n := len(s)
	if format == 'e' {
		// clean up e-09 to e-9
		if n >= 4 && s[n-4] == 'e' && s[n-3] == '-' && s[n-2] == '0' {
			s[n-2] = s[n-1]
			n--
		}
	}
	return pos + n
}
