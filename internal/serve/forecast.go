package serve

import (
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"

	"orcf/internal/core"
	"orcf/internal/parallel"
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
	fb := fleetBodies.Get().(*fleetBody)
	*fb = fleetBody{
		plan: snap.Plan(), roster: snap.Roster(), h: h,
		resources: snap.Resources(), perTask: max(1, taskValues/snap.Resources()),
		slots: fb.slots[:0], bufs: fb.bufs[:0],
	}
	for i := 0; i < snap.Nodes(); i++ {
		if _, live := fb.roster.IDAt(i); live && !math.IsNaN(fb.plan.At(i, 0, 0)) {
			fb.slots = append(fb.slots, i)
		}
	}
	fb.write(w, snap)
	// The pooled body keeps its lists, not the snapshot or the buffers.
	for _, buf := range fb.bufs {
		bodyBufs.Put(buf)
	}
	clear(fb.bufs)
	*fb = fleetBody{slots: fb.slots, bufs: fb.bufs[:0]}
	fleetBodies.Put(fb)
}

// fleetBodies recycles the fleet bodies with their lists, one per request in
// flight.
var fleetBodies = sync.Pool{New: func() any { return new(fleetBody) }}

// bufSize is the capacity the pooled body buffers start with, and
// taskValues how many forecast values one row chunk covers: at up to
// jsonFloatRoom+1 bytes a value a chunk's rows stay under bufSize — large
// enough to amortise the fan-out and the Write call, small enough that the
// chunks cut a large fleet's horizon into items for the pool.
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
// struct (non-finite values fenced to 0), in one buffer and one Write. A
// horizon that repeats the one before (ForecastPlan.RepeatsPrevious) copies
// the row bytes just written instead of formatting them again.
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
	var prev []byte // the previous horizon's row
	for hi := 0; hi < h; hi++ {
		if hi > 0 {
			b[pos] = ','
			pos++
		}
		b[pos] = '['
		pos++
		start := pos
		if plan.RepeatsPrevious(hi) {
			pos += copy(b[pos:], prev)
		} else {
			pos = putRow(b, pos, plan.Row(slot, hi, vals))
		}
		prev = b[start:pos]
		b[pos] = ']'
		pos++
	}
	pos += copy(b[pos:], "]}\n")
	b = b[:pos]
	_, _ = w.Write(b) // a failed Write means the client went away
	*buf = b
	bodyBufs.Put(buf)
}

// fleetBody is one full-fleet ForecastResponse for horizons 1..h being
// written straight from the plan, with the bytes json.NewEncoder(w).Encode
// would produce for the equivalent struct (Nodes = the entries' IDs,
// non-finite values fenced to 0), without building the [h][entry][resource]
// tensor. Its entries are slots: the fleet's live slots whose forecast is
// defined, in slot order, cut into chunks of perTask. bufs holds the head's
// buffer, then one per row chunk.
type fleetBody struct {
	plan                  *core.ForecastPlan
	roster                *core.Roster
	slots                 []int
	bufs                  []*[]byte
	h, resources, perTask int
}

// write streams the body: the head with the Nodes list, then every
// horizon's row chunks in order, one Write each. A horizon that does not
// repeat the one before (ForecastPlan.RepeatsPrevious) has its chunks
// formatted on the shared pool first, the first horizon's alongside the
// head; a repeated one writes the same chunks again, reframed. A failed
// Write means the client went away; the rest of the body is dropped.
func (fb *fleetBody) write(w http.ResponseWriter, snap *core.Snapshot) {
	w.Header().Set("Content-Type", "application/json")
	for range 1 + (len(fb.slots)+fb.perTask-1)/fb.perTask {
		fb.bufs = append(fb.bufs, bodyBufs.Get().(*[]byte))
	}
	for hi := 0; hi < fb.h; hi++ {
		if !fb.plan.RepeatsPrevious(hi) {
			first := min(hi, 1) // the head is formatted once, with horizon 0
			_ = parallel.ForEach(len(fb.bufs)-first, func(i int) error {
				k := first + i
				if buf := fb.bufs[k]; k == 0 {
					*buf = fb.appendHead((*buf)[:0], snap)
				} else {
					*buf = fb.appendRows((*buf)[:0], hi, k-1)
				}
				return nil
			})
		}
		if hi == 0 {
			if _, err := w.Write(*fb.bufs[0]); err != nil {
				return
			}
		}
		for c, buf := range fb.bufs[1:] {
			if _, err := w.Write(fb.framed(*buf, hi, c)); err != nil {
				return
			}
		}
	}
}

// room extends b by n bytes to write into by index and returns it with the
// index the room starts at.
func room(b []byte, n int) ([]byte, int) {
	pos := len(b)
	return slices.Grow(b, n)[:pos+n], pos
}

// appendHead appends the body's head to the empty b: the fields every
// ForecastResponse starts with, then the Nodes list and the opening of the
// forecast array — or, when no entry has a forecast, no list and the h empty
// horizon arrays that end the body.
func (fb *fleetBody) appendHead(b []byte, snap *core.Snapshot) []byte {
	b = appendHead(b, snap, fb.h)
	if len(fb.slots) == 0 {
		b = append(append(b, `,"forecast":[[]`...), strings.Repeat(",[]", fb.h-1)...)
		return append(b, "]}\n"...)
	}
	b = append(b, `,"nodes":[`...)
	for e, slot := range fb.slots {
		if e > 0 {
			b = append(b, ',')
		}
		id, _ := fb.roster.IDAt(slot)
		b = strconv.AppendInt(b, int64(id), 10)
	}
	return append(b, `],"forecast":[`...)
}

// rowsAt is where appendRows starts a chunk's rows: before them, framed
// writes the `,[` that opens a horizon after the one before.
const rowsAt = 2

// appendRows appends chunk c of horizon hi's rows to the empty b from
// rowsAt, each written [v,…], a comma before every row but the horizon's
// first, and leaves room after them for the `]]}\n` framed may close them
// with. The room for the whole chunk is reserved once and the rows are
// written into it by index.
func (fb *fleetBody) appendRows(b []byte, hi, c int) []byte {
	lo, end := c*fb.perTask, min((c+1)*fb.perTask, len(fb.slots))
	b, pos := room(b, (end-lo)*(rowRoom(fb.resources)+1)+rowsAt+4)
	pos += rowsAt
	var row [4]float64 // d ≤ 4 rows stay on the stack
	vals := row[:]
	if fb.resources > len(row) {
		vals = make([]float64, fb.resources)
	}
	for e, slot := range fb.slots[lo:end] {
		if lo+e > 0 {
			b[pos] = ','
			pos++
		}
		pos = putRow(b, pos, fb.plan.Row(slot, hi, vals))
	}
	return b[:pos]
}

// framed returns what writes chunk c of horizon hi: the rows appendRows
// formatted into b, with the brackets and the body's end that fall on the
// chunk written around them in place — `[` opening the horizon, after the
// `,` that follows the one before, on its first chunk, and on its last `]`
// closing it, then `]}\n` after the last horizon.
func (fb *fleetBody) framed(b []byte, hi, c int) []byte {
	lo, end := rowsAt, len(b)
	if c == 0 {
		lo--
		b[lo] = '['
		if hi > 0 {
			lo--
			b[lo] = ','
		}
	}
	if c == len(fb.bufs)-2 { // the last chunk: bufs[0] is the head's
		b = b[:end+4]
		b[end] = ']'
		end++
		if hi == fb.h-1 {
			end += copy(b[end:], "]}\n")
		}
	}
	return b[lo:end]
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
