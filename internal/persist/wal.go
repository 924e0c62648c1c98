package persist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"orcf/internal/core"
)

// walHeaderSize is the file header plus fingerprint + resources.
const walHeaderSize = headerSize + 8 + 4

// walPreludeSize is the fixed per-record prefix: step (u64) + slot count
// (u32). The rest of the record is sized by the slot count.
const walPreludeSize = 8 + 4

// maxWALSlots bounds the slot count a record may claim, so a corrupt length
// field cannot drive a huge allocation during recovery.
const maxWALSlots = 1 << 24

// walWriter appends core.StepRecords to one WAL epoch file. Records are
// variable-size: each carries the fleet's slot → ID binding and liveness at
// that step, so recovery can reconcile membership before replaying the step
// (see core.System.Reapply).
type walWriter struct {
	f     *os.File
	w     *bufio.Writer
	buf   []byte // one-record scratch, regrown as the fleet grows
	dims  int
	fsync bool
}

// createWAL creates (truncating any previous file of the same name) the WAL
// epoch file for records after the given step and writes its header.
func createWAL(path string, fingerprint uint64, dims int, fsync bool) (*walWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	w := &walWriter{
		f:     f,
		w:     bufio.NewWriter(f),
		dims:  dims,
		fsync: fsync,
	}
	hdr := make([]byte, walHeaderSize)
	putHeader(hdr, KindWAL)
	binary.LittleEndian.PutUint64(hdr[headerSize:], fingerprint)
	binary.LittleEndian.PutUint32(hdr[headerSize+8:], uint32(dims))
	if _, err := w.w.Write(hdr); err != nil {
		f.Close()
		return nil, fmt.Errorf("persist: %w", err)
	}
	if err := w.flush(); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// append writes one record: the roster of rec at Step entry, its rows
// (nil for tombstones and silent members) and its per-slot flags. The
// record is flushed to the OS before append returns (and fsynced when the
// writer was opened with fsync), so after a crash at any point the file
// ends in whole records plus at most one torn one.
func (w *walWriter) append(rec *core.StepRecord) (int, error) {
	n := len(rec.IDs)
	if len(rec.Alive) != n || len(rec.X) != n || len(rec.Arrived) != n {
		return 0, fmt.Errorf("persist: record for %d/%d/%d slots, want %d: %w",
			len(rec.Alive), len(rec.X), len(rec.Arrived), n, ErrMismatch)
	}
	rows := 0
	for _, xi := range rec.X {
		if xi == nil {
			continue
		}
		if len(xi) != w.dims {
			return 0, fmt.Errorf("persist: row has dim %d, want %d: %w", len(xi), w.dims, ErrMismatch)
		}
		rows++
	}
	// The prelude, n stable IDs, three n-bit bitsets (alive, row present,
	// arrived), the rows' values and a CRC.
	bits := (n + 7) / 8
	size := walPreludeSize + n*8 + 3*bits + rows*w.dims*8 + 4
	if cap(w.buf) < size {
		w.buf = make([]byte, size)
	}
	buf := w.buf[:size]
	binary.LittleEndian.PutUint64(buf, uint64(rec.T))
	binary.LittleEndian.PutUint32(buf[8:], uint32(n))
	off := walPreludeSize
	for _, id := range rec.IDs {
		binary.LittleEndian.PutUint64(buf[off:], uint64(int64(id)))
		off += 8
	}
	sets := buf[off : off+3*bits]
	clear(sets)
	off += 3 * bits
	for i := 0; i < n; i++ {
		at, mask := i/8, byte(1)<<(i%8)
		if rec.Alive[i] {
			sets[at] |= mask
		}
		if rec.X[i] != nil {
			sets[bits+at] |= mask
			for _, v := range rec.X[i] {
				binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(v))
				off += 8
			}
		}
		if rec.Arrived[i] {
			sets[2*bits+at] |= mask
		}
	}
	binary.LittleEndian.PutUint32(buf[off:], crc32.Checksum(buf[:off], crcTable))
	if _, err := w.w.Write(buf); err != nil {
		return 0, fmt.Errorf("persist: %w", err)
	}
	return size, w.flush()
}

func (w *walWriter) flush() error {
	if err := w.w.Flush(); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if w.fsync {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("persist: %w", err)
		}
	}
	return nil
}

func (w *walWriter) close() error {
	if err := w.flush(); err != nil {
		w.f.Close()
		return err
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	return nil
}

// readWAL decodes one WAL file, stopping cleanly at the first torn or
// corrupt record: it returns the intact prefix and torn=true when a partial
// or checksum-failing suffix was discarded. Header-level corruption returns
// ErrCorrupt; a fingerprint or dimensionality mismatch returns ErrMismatch.
func readWAL(path string, fingerprint uint64, dims int) (recs []core.StepRecord, torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false, fmt.Errorf("persist: %w", err)
	}
	defer f.Close()
	r := bufio.NewReader(f)

	hdr := make([]byte, walHeaderSize)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, false, fmt.Errorf("persist: %s: %w: truncated header", path, ErrCorrupt)
	}
	if err := checkHeader(hdr, KindWAL); err != nil {
		return nil, false, fmt.Errorf("persist: %s: %w", path, err)
	}
	if fp := binary.LittleEndian.Uint64(hdr[headerSize:]); fp != fingerprint {
		return nil, false, fmt.Errorf("persist: %s: fingerprint %#x, want %#x: %w",
			path, fp, fingerprint, ErrMismatch)
	}
	if d := binary.LittleEndian.Uint32(hdr[headerSize+8:]); int(d) != dims {
		return nil, false, fmt.Errorf("persist: %s: dimensionality %d, want %d: %w",
			path, d, dims, ErrMismatch)
	}

	var buf []byte
	for {
		prelude := make([]byte, walPreludeSize)
		if _, err := io.ReadFull(r, prelude); err != nil {
			// io.EOF means the file ends exactly on a record boundary;
			// anything else is a record cut mid-write.
			return recs, err != io.EOF, nil
		}
		n := int(binary.LittleEndian.Uint32(prelude[8:]))
		if n <= 0 || n > maxWALSlots {
			return recs, true, nil // implausible slot count: corrupt record
		}
		// Read the roster + bitsets first; the row count (and so the full
		// record size) depends on the row bitset.
		bits := (n + 7) / 8
		fixed := n*8 + 3*bits
		if cap(buf) < fixed {
			buf = make([]byte, fixed)
		}
		head := buf[:fixed]
		if _, err := io.ReadFull(r, head); err != nil {
			return recs, true, nil
		}
		// bit reports slot i's flag in bitset set: 0 alive, 1 row, 2 arrived.
		bit := func(set, i int) bool { return head[n*8+set*bits+i/8]&(1<<(i%8)) != 0 }
		for i := n; i < bits*8; i++ { // bits past the last slot: no record append writes
			if bit(0, i) || bit(1, i) || bit(2, i) {
				return recs, true, nil
			}
		}
		rows := 0
		for i := 0; i < n; i++ {
			if bit(1, i) {
				rows++
			}
		}
		tail := make([]byte, rows*dims*8+4)
		if _, err := io.ReadFull(r, tail); err != nil {
			return recs, true, nil
		}
		crc := crc32.Checksum(prelude, crcTable)
		crc = crc32.Update(crc, crcTable, head)
		crc = crc32.Update(crc, crcTable, tail[:len(tail)-4])
		if crc != binary.LittleEndian.Uint32(tail[len(tail)-4:]) {
			return recs, true, nil
		}

		rec := core.StepRecord{
			T:       int(binary.LittleEndian.Uint64(prelude)),
			IDs:     make([]int, n),
			Alive:   make([]bool, n),
			X:       make([][]float64, n),
			Arrived: make([]bool, n),
		}
		off := 0
		for i := 0; i < n; i++ {
			rec.IDs[i] = int(int64(binary.LittleEndian.Uint64(head[i*8:])))
			rec.Alive[i], rec.Arrived[i] = bit(0, i), bit(2, i)
			if !bit(1, i) {
				continue
			}
			row := make([]float64, dims)
			for d := range row {
				row[d] = math.Float64frombits(binary.LittleEndian.Uint64(tail[off:]))
				off += 8
			}
			rec.X[i] = row
		}
		recs = append(recs, rec)
	}
}
