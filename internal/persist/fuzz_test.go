package persist

// Native Go fuzz targets for the recovery-path readers: the WAL decoder
// (variable-size roster-carrying records) and the checkpoint blob reader
// plus its gob payload decode. Both read files a crash may have cut at any
// byte, so arbitrary corruption must surface as (ErrCorrupt, ErrMismatch, a
// torn tail, or a gob error) — never a panic or an unbounded allocation.
// Seed corpora live under testdata/fuzz/ (regenerate with `go test -run
// TestWriteFuzzCorpus -write-fuzz-corpus`); `make fuzz-smoke` gives each
// target a short coverage-guided run in CI.

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"flag"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"orcf/internal/core"
)

// fuzzFingerprint/fuzzDims are the fixed configuration the WAL fuzz target
// validates against; seeds are written with the same values so mutations
// start from files that pass the header checks.
const (
	fuzzFingerprint = 0xfeedface
	fuzzDims        = 2
)

// walSeedBytes writes a small real WAL (header plus two roster-carrying
// records, one with a silent slot) and returns its raw bytes.
func walSeedBytes(tb testing.TB) []byte {
	tb.Helper()
	cfg := testConfig()
	sys, err := core.NewSystem(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	path := filepath.Join(tb.TempDir(), "seed.wal")
	w, err := createWAL(path, fuzzFingerprint, fuzzDims, false)
	if err != nil {
		tb.Fatal(err)
	}
	roster := sys.Roster()
	arrived := make([]bool, cfg.Nodes)
	arrived[0] = true
	rec := roster.Record(1, testInput(cfg.Nodes, cfg.Resources, 1), arrived)
	if _, err := w.append(&rec); err != nil {
		tb.Fatal(err)
	}
	x2 := testInput(cfg.Nodes, cfg.Resources, 2)
	x2[3] = nil // silent slot: row bitset differs from alive bitset
	rec = roster.Record(2, x2, arrived)
	if _, err := w.append(&rec); err != nil {
		tb.Fatal(err)
	}
	if err := w.close(); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// strayBitSeed is a WAL of one three-slot record whose alive bitset carries
// a bit past the last slot under a valid CRC: bytes no append writes, so the
// reader must stop there rather than decode a record that re-encodes
// otherwise.
func strayBitSeed(tb testing.TB) []byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "stray.wal")
	w, err := createWAL(path, fuzzFingerprint, fuzzDims, false)
	if err != nil {
		tb.Fatal(err)
	}
	rec := core.StepRecord{T: 1, IDs: []int{0, 1, 2}, Alive: []bool{true, true, true},
		X: [][]float64{{0.1, 0.2}, nil, nil}, Arrived: []bool{true, false, false}}
	if _, err := w.append(&rec); err != nil {
		tb.Fatal(err)
	}
	if err := w.close(); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	data[walHeaderSize+walPreludeSize+3*8] |= 1 << 3 // slot 3 of three
	end := len(data) - 4
	binary.LittleEndian.PutUint32(data[end:], crc32.Checksum(data[walHeaderSize:end], crcTable))
	return data
}

// FuzzReadWAL feeds arbitrary bytes to the WAL reader through a scratch
// file. Accepted records must be shape-consistent, and re-encode through the
// writer to the bytes they were read from: the header and every record up to
// where the scan stopped, the whole file unless it stopped at a torn tail.
// Corruption must stop the scan at a torn tail or a header error.
func FuzzReadWAL(f *testing.F) {
	seed := walSeedBytes(f)
	f.Add(seed)
	f.Add(seed[:walHeaderSize])                       // header only: zero records, clean EOF
	f.Add(seed[:walHeaderSize+10])                    // torn mid-prelude
	f.Add(append([]byte(nil), seed[:len(seed)-1]...)) // torn final CRC
	f.Add(strayBitSeed(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, torn, err := readWAL(path, fuzzFingerprint, fuzzDims)
		if err != nil {
			return
		}
		again := filepath.Join(dir, "again.wal")
		w, err := createWAL(again, fuzzFingerprint, fuzzDims, false)
		if err != nil {
			t.Fatal(err)
		}
		for i := range recs {
			rec := &recs[i]
			n := len(rec.IDs)
			if len(rec.Alive) != n || len(rec.X) != n || len(rec.Arrived) != n {
				t.Fatalf("record shape torn: %d ids, %d alive, %d rows, %d arrived",
					n, len(rec.Alive), len(rec.X), len(rec.Arrived))
			}
			if _, err := w.append(rec); err != nil {
				t.Fatalf("record %d does not re-encode: %v", i, err)
			}
		}
		if err := w.close(); err != nil {
			t.Fatal(err)
		}
		out, err := os.ReadFile(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, out) || (!torn && len(out) != len(data)) {
			t.Fatalf("%d records (torn=%v) re-encode to %d bytes that are not the %d read",
				len(recs), torn, len(out), len(data))
		}
	})
}

// blobSeedBytes writes a checkpoint blob carrying a real exported core.State
// and returns the file's raw bytes.
func blobSeedBytes(tb testing.TB) []byte {
	tb.Helper()
	cfg := testConfig()
	sys, err := core.NewSystem(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for step := 1; step <= 3; step++ {
		if _, err := sys.Step(testInput(cfg.Nodes, cfg.Resources, step)); err != nil {
			tb.Fatal(err)
		}
	}
	st, err := sys.ExportState()
	if err != nil {
		tb.Fatal(err)
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(st); err != nil {
		tb.Fatal(err)
	}
	path := filepath.Join(tb.TempDir(), "seed.ckpt")
	if err := WriteBlobAtomic(path, KindCheckpoint, payload.Bytes()); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzReadBlob feeds arbitrary bytes to the checkpoint reader and, when the
// framing validates, the gob state decode — the exact recovery path of
// Manager.readCheckpoint.
func FuzzReadBlob(f *testing.F) {
	seed := blobSeedBytes(f)
	f.Add(seed)
	f.Add(seed[:headerSize+8])                        // frame but no payload
	f.Add(append([]byte(nil), seed[:len(seed)-2]...)) // truncated CRC
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		payload, err := ReadBlob(path, KindCheckpoint)
		if err != nil {
			return
		}
		// The framing validated; the gob payload may still be arbitrary
		// bytes and must error out cleanly, never panic.
		st := new(core.State)
		_ = gob.NewDecoder(bytes.NewReader(payload)).Decode(st)
	})
}

var writeFuzzCorpus = flag.Bool("write-fuzz-corpus", false,
	"regenerate the committed seed corpora under testdata/fuzz")

// TestWriteFuzzCorpus regenerates the committed seed corpus files from the
// same seeds the fuzz targets f.Add. It only runs with -write-fuzz-corpus.
func TestWriteFuzzCorpus(t *testing.T) {
	if !*writeFuzzCorpus {
		t.Skip("pass -write-fuzz-corpus to regenerate testdata/fuzz")
	}
	wal := walSeedBytes(t)
	writeCorpus(t, "FuzzReadWAL", [][]byte{wal, wal[:walHeaderSize]})
	blob := blobSeedBytes(t)
	writeCorpus(t, "FuzzReadBlob", [][]byte{blob, blob[:headerSize+8]})
}

// writeCorpus encodes seeds in the `go test fuzz v1` corpus format.
func writeCorpus(t *testing.T, fuzzName string, seeds [][]byte) {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", fuzzName)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, seed := range seeds {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(seed)) + ")\n"
		name := filepath.Join(dir, "seed-"+strconv.Itoa(i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
