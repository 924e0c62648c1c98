package transport

// The wire protocol: versioned binary framing for the collection plane.
//
// A connection opens with a 5-byte preamble — 0x00 'O' 'R' 'C' followed by
// the protocol version byte (2; version 1 was a gob stream and is no longer
// spoken) — and then carries a sequence of frames. There is no negotiation:
// the server drops a connection whose first five bytes are anything else.
//
// Frame layout (multi-byte integers big-endian):
//
//	u32  length of (type byte + payload), 1 ≤ length ≤ maxFrameBytes
//	u8   frame type (frameHello | frameBatch | frameHeartbeat)
//	...  payload (length-1 bytes)
//	u32  CRC32-C over (type byte + payload)
//
// Payloads (uvarint = unsigned LEB128 as in encoding/binary):
//
//	hello      uvarint node, uvarint flags       (bit 0: mux — records may
//	                                              carry any node id)
//	batch      u8 flags (bit 0: the rest of the payload is uvarint rawLen
//	           followed by a DEFLATE stream of the body), body:
//	           uvarint localStep, uvarint count, count × record
//	record     uvarint node, uvarint step, uvarint dims, dims × u64
//	           little-endian IEEE-754 bits of each value
//	heartbeat  uvarint node, uvarint localStep
//
// localStep is the sender's current local time step — the eq. 5 denominator.
// It advances the store's per-node clock even when the adaptive policy
// suppressed every sample in the interval (heartbeat frames exist for
// exactly that case), so centrally-computed transmission frequencies match
// the agent-side meter instead of overestimating. A localStep of 0 means
// "no clock information" and is ignored.

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
)

// magicV2 is the connection preamble: 0x00, "ORC", protocol version 2.
var magicV2 = [5]byte{0x00, 'O', 'R', 'C', 0x02}

// Frame types.
const (
	frameHello     = 0x01
	frameBatch     = 0x02
	frameHeartbeat = 0x03
)

// Hello flags.
const (
	// helloFlagMux marks a multiplexed connection: batch records and
	// heartbeats may carry any node id, not just the hello's. Used by
	// per-rack aggregators and the loadgen fleet simulator.
	helloFlagMux = 1 << 0
)

// Batch flags.
const (
	batchFlagCompressed = 1 << 0
)

// maxFrameBytes bounds a single frame so a corrupt or hostile length prefix
// cannot make the server allocate unboundedly. 16 MiB fits > 100k records.
const maxFrameBytes = 16 << 20

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// errMalformed tags protocol-violation decode errors, as opposed to plain
// I/O errors (EOF, timeouts) from a vanished peer.
var errMalformed = errors.New("transport: malformed frame")

// appendFrame appends a complete frame (length, type, payload, CRC) to dst.
func appendFrame(dst []byte, typ byte, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(1+len(payload)))
	body := len(dst)
	dst = append(dst, typ)
	dst = append(dst, payload...)
	return binary.BigEndian.AppendUint32(dst, crc32.Checksum(dst[body:], crcTable))
}

// appendHelloPayload encodes a hello payload.
func appendHelloPayload(dst []byte, node int, flags uint64) []byte {
	dst = binary.AppendUvarint(dst, uint64(node))
	return binary.AppendUvarint(dst, flags)
}

// appendHeartbeatPayload encodes a heartbeat payload.
func appendHeartbeatPayload(dst []byte, node, localStep int) []byte {
	dst = binary.AppendUvarint(dst, uint64(node))
	return binary.AppendUvarint(dst, uint64(localStep))
}

// appendRecord encodes one varint-packed batch record.
func appendRecord(dst []byte, m Measurement) []byte {
	dst = binary.AppendUvarint(dst, uint64(m.Node))
	dst = binary.AppendUvarint(dst, uint64(m.Step))
	dst = binary.AppendUvarint(dst, uint64(len(m.Values)))
	for _, v := range m.Values {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// appendBatchBody encodes the (uncompressed) batch body.
func appendBatchBody(dst []byte, localStep int, recs []Measurement) []byte {
	dst = binary.AppendUvarint(dst, uint64(localStep))
	dst = binary.AppendUvarint(dst, uint64(len(recs)))
	for _, m := range recs {
		dst = appendRecord(dst, m)
	}
	return dst
}

// batchEncoder builds batch payloads, reusing its scratch buffers and (when
// compressing) a single flate writer across flushes. Not safe for
// concurrent use — each BatchClient writer goroutine owns one.
type batchEncoder struct {
	compress bool
	payload  []byte // flags byte + (possibly compressed) body, reused
	raw      []byte // uncompressed body scratch for the compressing path
	frame    []byte // complete-frame scratch for the owning writer
	comp     bytes.Buffer
	fw       *flate.Writer
}

// encode returns the batch payload (flags byte included) for one flush.
// The returned slice aliases the encoder's scratch and is valid until the
// next call.
func (e *batchEncoder) encode(localStep int, recs []Measurement) ([]byte, error) {
	if !e.compress {
		e.payload = append(e.payload[:0], 0) // flags byte, then the body in place
		e.payload = appendBatchBody(e.payload, localStep, recs)
		return e.payload, nil
	}
	e.raw = appendBatchBody(e.raw[:0], localStep, recs)
	e.comp.Reset()
	e.comp.WriteByte(batchFlagCompressed)
	e.comp.Write(binary.AppendUvarint(nil, uint64(len(e.raw))))
	if e.fw == nil {
		fw, err := flate.NewWriter(&e.comp, flate.BestSpeed)
		if err != nil {
			return nil, fmt.Errorf("transport: flate init: %w", err)
		}
		e.fw = fw
	} else {
		e.fw.Reset(&e.comp)
	}
	if _, err := e.fw.Write(e.raw); err != nil {
		return nil, fmt.Errorf("transport: compress batch: %w", err)
	}
	if err := e.fw.Close(); err != nil {
		return nil, fmt.Errorf("transport: compress batch: %w", err)
	}
	return e.comp.Bytes(), nil
}

// frameReader reads frames from a buffered connection, reusing one
// buffer across frames.
type frameReader struct {
	br  *bufio.Reader
	buf []byte
}

// next reads one frame and verifies its CRC. The returned payload aliases
// the reader's buffer and is valid until the next call. I/O errors are
// returned as-is; framing violations wrap errMalformed.
func (r *frameReader) next() (typ byte, payload []byte, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r.br, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n < 1 || n > maxFrameBytes {
		return 0, nil, fmt.Errorf("frame length %d: %w", n, errMalformed)
	}
	need := int(n) + 4 // type+payload plus trailing CRC
	if cap(r.buf) < need {
		r.buf = make([]byte, need)
	}
	r.buf = r.buf[:need]
	if _, err := io.ReadFull(r.br, r.buf); err != nil {
		return 0, nil, err
	}
	body, sum := r.buf[:n], binary.BigEndian.Uint32(r.buf[n:])
	if crc32.Checksum(body, crcTable) != sum {
		return 0, nil, fmt.Errorf("frame CRC mismatch: %w", errMalformed)
	}
	return body[0], body[1:], nil
}

// uvarint decodes one uvarint that must fit a non-negative int.
func uvarint(p []byte) (int, []byte, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 || v > uint64(math.MaxInt) {
		return 0, nil, fmt.Errorf("bad uvarint: %w", errMalformed)
	}
	return int(v), p[n:], nil
}

// parseHello decodes a hello payload.
func parseHello(p []byte) (node int, flags int, err error) {
	node, p, err = uvarint(p)
	if err != nil {
		return 0, 0, err
	}
	flags, p, err = uvarint(p)
	if err != nil {
		return 0, 0, err
	}
	if len(p) != 0 {
		return 0, 0, fmt.Errorf("%d trailing hello bytes: %w", len(p), errMalformed)
	}
	return node, flags, nil
}

// parseHeartbeat decodes a heartbeat payload.
func parseHeartbeat(p []byte) (node, localStep int, err error) {
	node, p, err = uvarint(p)
	if err != nil {
		return 0, 0, err
	}
	localStep, p, err = uvarint(p)
	if err != nil {
		return 0, 0, err
	}
	if len(p) != 0 {
		return 0, 0, fmt.Errorf("%d trailing heartbeat bytes: %w", len(p), errMalformed)
	}
	return node, localStep, nil
}

// batchDecoder decodes batch payloads, reusing scratch buffers across
// frames: the container slice and the values arena the records' Values are
// cut from. Store.Apply copies what it keeps, so nothing a batch decodes
// outlives the next one.
type batchDecoder struct {
	raw  []byte
	recs []Measurement
	vals []float64 // the records' values, back to back
	// rawBytes is the last payload's uncompressed size (flags byte plus
	// decompressed body) — the numerator of the ingest compression ratio.
	rawBytes int
}

// decode parses one batch payload into (localStep, records). The returned
// records, their Values included, are valid until the next call.
func (d *batchDecoder) decode(p []byte) (localStep int, recs []Measurement, err error) {
	if len(p) < 1 {
		return 0, nil, fmt.Errorf("empty batch payload: %w", errMalformed)
	}
	flags := p[0]
	body := p[1:]
	if flags&batchFlagCompressed != 0 {
		var rawLen int
		rawLen, body, err = uvarint(body)
		if err != nil {
			return 0, nil, err
		}
		if rawLen > maxFrameBytes {
			return 0, nil, fmt.Errorf("compressed batch expands to %d bytes: %w", rawLen, errMalformed)
		}
		if cap(d.raw) < rawLen {
			d.raw = make([]byte, rawLen)
		}
		d.raw = d.raw[:rawLen]
		fr := flate.NewReader(bytes.NewReader(body))
		if _, err := io.ReadFull(fr, d.raw); err != nil {
			return 0, nil, fmt.Errorf("decompress batch: %w", errMalformed)
		}
		_ = fr.Close()
		body = d.raw
	}
	d.rawBytes = len(body) + 1
	localStep, body, err = uvarint(body)
	if err != nil {
		return 0, nil, err
	}
	count, body, err := uvarint(body)
	if err != nil {
		return 0, nil, err
	}
	d.recs, d.vals = d.recs[:0], d.vals[:0]
	for i := 0; i < count; i++ {
		var m Measurement
		m.Node, body, err = uvarint(body)
		if err != nil {
			return 0, nil, err
		}
		m.Step, body, err = uvarint(body)
		if err != nil {
			return 0, nil, err
		}
		var dims int
		dims, body, err = uvarint(body)
		if err != nil {
			return 0, nil, err
		}
		// Compare against len/8 rather than 8*dims: a hostile dims near
		// MaxInt would overflow the multiplication past this guard and
		// panic the collector in make below.
		if dims > len(body)/8 {
			return 0, nil, fmt.Errorf("record truncated: %w", errMalformed)
		}
		// A record cut before the arena moved keeps its values in the
		// array it was cut from, which no later record of this batch writes.
		start := len(d.vals)
		d.vals = slices.Grow(d.vals, dims)[:start+dims]
		m.Values = d.vals[start : start+dims : start+dims]
		for j := range m.Values {
			m.Values[j] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*j:]))
		}
		body = body[8*dims:]
		d.recs = append(d.recs, m)
	}
	if len(body) != 0 {
		return 0, nil, fmt.Errorf("%d trailing batch bytes: %w", len(body), errMalformed)
	}
	return localStep, d.recs, nil
}
