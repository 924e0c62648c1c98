// Package persist makes the pipeline's state durable: CRC-framed checkpoint
// files written with atomic rename plus an append-only measurement
// write-ahead log (WAL), so that a crashed collector recovers to exactly the
// state it held — load the newest valid checkpoint, then replay the WAL tail
// through core.System.Step (restore is bit-identical, see core.State, so the
// replayed steps reproduce the lost ones exactly).
//
// Layout of a state directory:
//
//	ckpt-<step>.ckpt   full core.State at <step> (gob, length- and CRC-framed)
//	wal-<step>.wal     measurement records for steps <step>+1, <step>+2, …
//
// Every checkpoint at step S rotates the WAL to a fresh wal-S file, so the
// files chain: recovery restores the newest checkpoint that validates and
// then walks the WAL files in step order, replaying records past the
// restored step until the chain ends — at the tip, at a torn tail (a record
// cut mid-write by the crash), or at a gap. A torn or corrupt suffix is
// never fatal: recovery simply stops at the last intact record, exactly the
// at-most-one-lost-step semantics the Manager's log-after-step ordering
// implies. Checkpoints are written on a background goroutine from an
// exported deep copy (core.System.ExportState), so encoding and fsync never
// stall the ingest loop.
//
// The Manager ties it together for a live system; the blob helpers
// (WriteBlobAtomic, ReadBlob) also stand alone for small auxiliary files.
package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
)

// Format constants: every file starts with magic, a format version, and a
// kind byte so checkpoint and WAL files are never confused for one another.
// Format version 2 made WAL records variable-size roster carriers (fleet
// membership changes online); version-1 files are rejected as ErrMismatch
// and recovery starts fresh.
const (
	formatVersion = 2

	// KindCheckpoint marks a checkpoint blob file.
	KindCheckpoint uint8 = 1
	// KindWAL marks a write-ahead-log file.
	KindWAL uint8 = 2
	// KindAux marks auxiliary blobs that are neither checkpoint nor WAL
	// (examples/crashrecover stores its result in one).
	KindAux uint8 = 3
)

var magic = [4]byte{'O', 'R', 'C', 'F'}

// headerSize is magic + uint16 version + uint8 kind.
const headerSize = 4 + 2 + 1

// ErrCorrupt reports a file whose framing, length, or checksum does not
// validate — a torn write or on-disk corruption.
var ErrCorrupt = errors.New("persist: corrupt or torn file")

// ErrMismatch reports a file that is intact but belongs to a different
// configuration (fingerprint or shape).
var ErrMismatch = errors.New("persist: state belongs to a different configuration")

// crcTable is the Castagnoli table used for every checksum in the format.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// putHeader writes the 7-byte file header into buf.
func putHeader(buf []byte, kind uint8) {
	copy(buf, magic[:])
	binary.LittleEndian.PutUint16(buf[4:], formatVersion)
	buf[6] = kind
}

// checkHeader validates a 7-byte file header.
func checkHeader(buf []byte, kind uint8) error {
	if len(buf) < headerSize || [4]byte(buf[:4]) != magic {
		return fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint16(buf[4:]); v != formatVersion {
		return fmt.Errorf("%w: format version %d, want %d", ErrMismatch, v, formatVersion)
	}
	if buf[6] != kind {
		return fmt.Errorf("%w: file kind %d, want %d", ErrMismatch, buf[6], kind)
	}
	return nil
}

// WriteBlobAtomic durably writes header + length + payload + CRC to path:
// the bytes go to a temporary file in the same directory, are fsynced, and
// the file is renamed over path, then the directory is fsynced — a reader
// (or a recovery after a crash at any point) sees either the complete old
// file or the complete new one, never a prefix.
func WriteBlobAtomic(path string, kind uint8, payload []byte) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "tmp-*")
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()

	frame := make([]byte, headerSize+8)
	putHeader(frame, kind)
	binary.LittleEndian.PutUint64(frame[headerSize:], uint64(len(payload)))
	if _, err = tmp.Write(frame); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if _, err = tmp.Write(payload); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(payload, crcTable))
	if _, err = tmp.Write(crc[:]); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	return syncDir(dir)
}

// ReadBlob reads and validates a file written by WriteBlobAtomic, returning
// the payload. It fails with ErrCorrupt when the frame or checksum does not
// validate and ErrMismatch when the file is of a different kind or format
// version.
func ReadBlob(path string, kind uint8) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	if len(data) < headerSize+8+4 {
		return nil, fmt.Errorf("persist: %s: %w: short file", filepath.Base(path), ErrCorrupt)
	}
	if err := checkHeader(data, kind); err != nil {
		return nil, fmt.Errorf("persist: %s: %w", filepath.Base(path), err)
	}
	n := binary.LittleEndian.Uint64(data[headerSize:])
	body := data[headerSize+8:]
	if uint64(len(body)) != n+4 {
		return nil, fmt.Errorf("persist: %s: %w: payload %d bytes, frame says %d",
			filepath.Base(path), ErrCorrupt, len(body)-4, n)
	}
	payload := body[:n]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(body[n:]) {
		return nil, fmt.Errorf("persist: %s: %w: checksum mismatch", filepath.Base(path), ErrCorrupt)
	}
	return payload, nil
}

// syncDir fsyncs a directory so a completed rename is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	return nil
}

// checkpointName returns the file name of the checkpoint at a step.
func checkpointName(step int) string { return fmt.Sprintf("ckpt-%016d.ckpt", step) }

// walName returns the file name of the WAL epoch starting after a step.
func walName(step int) string { return fmt.Sprintf("wal-%016d.wal", step) }

// parseStep extracts the step from a file name of the given prefix/suffix
// shape, returning ok=false for foreign files.
func parseStep(name, prefix, suffix string) (int, bool) {
	if len(name) != len(prefix)+16+len(suffix) ||
		name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
		return 0, false
	}
	var step int
	if _, err := fmt.Sscanf(name[len(prefix):len(name)-len(suffix)], "%d", &step); err != nil {
		return 0, false
	}
	return step, true
}

// listSteps returns the ascending step numbers of all files in dir matching
// the prefix/suffix shape.
func listSteps(dir, prefix, suffix string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	var steps []int
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if step, ok := parseStep(e.Name(), prefix, suffix); ok {
			steps = append(steps, step)
		}
	}
	sort.Ints(steps)
	return steps, nil
}
