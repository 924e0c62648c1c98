// Package transport implements the distributed collection plane: local node
// agents stream their (adaptively filtered) measurements to the central
// collector over TCP. The in-process simulator bypasses this layer; the
// cmd/forecastd + cmd/nodeagent binaries run it for real.
//
// There is one wire protocol: after a fixed preamble a connection carries
// length-prefixed, CRC-checked frames — a hello identifying the node, then
// varint-packed measurement batches and heartbeats, each with the sender's
// local clock for exact eq. 5 accounting (format in protocol.go and
// docs/ARCHITECTURE.md). BatchClient is the sending side, ReconnectingClient
// the same with automatic redial; a connection that opens with anything but
// the preamble is dropped and counted as a protocol error.
//
// The server applies measurements to a Store and invokes an optional
// callback.
package transport

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// ErrClosed is returned when operating on a closed client or server.
var ErrClosed = errors.New("transport: closed")

// ErrProtocol reports a malformed message sequence.
var ErrProtocol = errors.New("transport: protocol violation")

// Measurement is one transmitted observation.
type Measurement struct {
	// Node is the reporting node index.
	Node int
	// Step is the node-local time step of the observation.
	Step int
	// Values is the d-dimensional measurement.
	Values []float64
}

// Store holds the most recent measurement of every node, i.e. the central
// node's z_t, plus per-node ingest accounting. It is safe for concurrent
// use: one RWMutex, writers (Apply, Advance, Forget) exclusive, readers
// shared.
//
// Layout: one map from node ID to an entry index, consulted only by Apply,
// Advance, Forget and Latest, over one dense slice of entries — per entry
// the latest measurement, the update count, the local clock, whether a
// measurement is held, and a generation. Forget frees an entry onto a free
// list; the next new ID reuses it with its generation bumped, so a reader
// that keeps per-entry state between walks (StoreStepper's watermarks) can
// tell a reused entry from the one it saw. A node is known to the store —
// listed by Stats — from its first measurement or first positive clock
// advance until Forget.
//
// The store owns the values it holds: Apply copies a measurement's Values
// into the entry's own slice, which later applies to the node overwrite in
// place under the write lock. Latest, Snapshot and Stats therefore return
// copies, and the one alias handed out — NodeStat.Latest.Values inside an
// EachReported or EachWritten callback — is valid only until that callback
// returns.
//
// Every write (Apply, a clock-moving Advance, Forget) also marks its entry
// in a bitmap, one bit per entry, that EachWritten walks in ascending entry
// order and empties: the stepping loop's per-tick read costs what arrived
// since the last tick, not the fleet size.
type Store struct {
	metrics StoreMetrics

	mu       sync.RWMutex
	index    map[int]int // node ID → entry
	entries  []entry
	free     []int    // entries released by Forget, reused last in first out
	reported int      // entries holding a measurement
	written  []uint64 // bit i%64 of word i/64: entry i written since the last EachWritten
}

// entry is one node's slot in the store. A freed entry is zero but for its
// generation.
type entry struct {
	latest  Measurement
	updates int
	// clock is the highest known local step, ≥ latest.Step when positive.
	// Only positive steps are ever recorded, so 0 is "unknown" — the value
	// a missing node reads as.
	clock    int
	gen      uint32
	reported bool // latest holds a measurement
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{index: make(map[int]int)}
}

// entryLocked returns the node's entry index, taking a fresh or freed entry
// for a node the store does not know; the caller holds the write lock.
func (s *Store) entryLocked(node int) int {
	i, ok := s.index[node]
	if !ok {
		if n := len(s.free); n > 0 {
			i, s.free = s.free[n-1], s.free[:n-1]
			s.entries[i].gen++
		} else {
			i = len(s.entries)
			s.entries = append(s.entries, entry{})
		}
		s.index[node] = i
	}
	return i
}

// markLocked adds entry i to the written set; the caller holds the write
// lock.
func (s *Store) markLocked(i int) {
	w := i >> 6
	if w >= len(s.written) {
		s.written = append(s.written, make([]uint64, w+1-len(s.written))...)
	}
	s.written[w] |= 1 << (i & 63)
}

// Apply records a measurement, keeping only the newest step per node.
// Accepted measurements count toward the node's update total; stale
// duplicates do not. Any measurement advances the node's local clock. The
// store keeps a copy of m.Values, so the caller may reuse the slice once
// Apply returns.
func (s *Store) Apply(m Measurement) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.applyLocked(m) {
		s.metrics.Applied.Inc()
	} else {
		s.metrics.Stale.Inc()
	}
}

// applyLocked is Apply under the caller's write lock; it reports whether m
// was accepted (false: a stale duplicate). Either way the entry is marked.
func (s *Store) applyLocked(m Measurement) bool {
	i := s.entryLocked(m.Node)
	s.markLocked(i)
	e := &s.entries[i]
	if m.Step > e.clock {
		e.clock = m.Step
	}
	if e.reported && e.latest.Step >= m.Step {
		return false
	}
	if !e.reported {
		e.reported = true
		s.reported++
	}
	e.latest.Node, e.latest.Step = m.Node, m.Step
	e.latest.Values = append(e.latest.Values[:0], m.Values...)
	e.updates++
	return true
}

// ApplyFrame applies one decoded batch frame under a single write-lock
// acquisition: its records in order, each as Apply would, then — for a frame
// of a connection bound to one node, owner ≥ 0 — the frame's local step as
// Advance(owner, localStep). A negative owner (a multiplexed connection)
// takes records of any node and advances no clock. A bound frame stops at
// the first record of another node: the records before it are applied, the
// clock is not advanced, and the server drops the connection. It returns the
// number of records applied; the Applied, Stale and Advances counters are
// added once per frame.
func (s *Store) ApplyFrame(recs []Measurement, owner, localStep int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, applied := 0, 0
	for ; n < len(recs); n++ {
		if owner >= 0 && recs[n].Node != owner {
			break
		}
		if s.applyLocked(recs[n]) {
			applied++
		}
	}
	s.metrics.Applied.Add(int64(applied))
	s.metrics.Stale.Add(int64(n - applied))
	if n == len(recs) && owner >= 0 && s.advanceLocked(owner, localStep) {
		s.metrics.Advances.Inc()
	}
	return n
}

// Advance moves a node's local clock forward without recording a
// measurement. The server calls this from batch headers and heartbeat
// frames, so steps on which the adaptive policy suppressed transmission
// still advance the eq. 5 denominator.
func (s *Store) Advance(node, step int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.advanceLocked(node, step) {
		s.metrics.Advances.Inc()
	}
}

// advanceLocked is Advance under the caller's write lock; it reports whether
// the clock moved, and marks the entry when it did.
func (s *Store) advanceLocked(node, step int) bool {
	i, ok := s.index[node]
	switch {
	case ok && step > s.entries[i].clock:
	case !ok && step > 0:
		i = s.entryLocked(node)
	default:
		return false
	}
	s.entries[i].clock = step
	s.markLocked(i)
	return true
}

// Forget drops everything the store holds for a node — its latest
// measurement, update count, and local clock. The collection plane calls it
// when a fleet member is evicted, so a churning fleet does not grow the
// store without bound; if the node later reports again it re-registers as
// new (its accounting restarts, in an entry of a new generation).
func (s *Store) Forget(node int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.index[node]
	if !ok {
		return
	}
	e := &s.entries[i]
	if e.reported {
		s.metrics.Forgotten.Inc()
		s.reported--
	}
	*e = entry{gen: e.gen}
	delete(s.index, node)
	s.free = append(s.free, i)
	s.markLocked(i)
}

// Latest returns a copy of the most recent measurement of a node.
func (s *Store) Latest(node int) (Measurement, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if i, ok := s.index[node]; ok && s.entries[i].reported {
		return s.entries[i].latest.clone(), true
	}
	return Measurement{}, false
}

// Snapshot returns a copy of the latest measurement of every node that has
// reported.
func (s *Store) Snapshot() map[int]Measurement {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[int]Measurement, s.reported)
	for node, i := range s.index {
		if e := &s.entries[i]; e.reported {
			out[node] = e.latest.clone()
		}
	}
	return out
}

// clone returns m with Values copied into a slice of its own.
func (m Measurement) clone() Measurement {
	m.Values = slices.Clone(m.Values)
	return m
}

// Len returns the number of nodes that have reported at least once.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.reported
}

// NodeStat is one node's ingest accounting.
type NodeStat struct {
	// Latest is the newest stored measurement. From Stats its Values are a
	// copy the caller owns; inside an EachReported callback they alias the
	// store's slice, which the next Apply to the node overwrites, and are
	// valid only until the callback returns.
	Latest Measurement
	// Updates counts accepted (newer-step) measurements since the store was
	// created.
	Updates int
	// LocalStep is the node's local step count as far as the collector
	// knows it: the newest measurement step, advanced further by batch
	// headers and heartbeats covering suppressed steps.
	LocalStep int
	// Frequency is the realized transmission frequency per eq. (5):
	// accepted updates over LocalStep. Zero when the step count is unknown
	// (non-positive steps).
	Frequency float64
}

// Stats returns the ingest accounting of every node the collector has
// heard from — through measurements or only heartbeats (a node whose
// policy has suppressed every sample so far reports frequency 0 over its
// local step count, not absence) — including the per-node realized
// transmit frequency: the central-side view of eq. (5) that the agents'
// adaptive policies are budgeting against. Every Latest.Values is a copy, so
// the result does not change when later measurements arrive.
func (s *Store) Stats() map[int]NodeStat {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[int]NodeStat, len(s.index))
	for node, i := range s.index {
		st := s.entries[i].stat()
		st.Latest = st.Latest.clone()
		out[node] = st
	}
	return out
}

// EachReported calls fn with the accounting of every node that has delivered
// at least one measurement, in entry order, while holding the store's read
// lock — the stepping loop's per-tick read: one pass over the dense entries,
// no map lookup, nothing copied but the NodeStat. Along with it fn gets the
// node's entry index and that entry's generation, which together name this
// node's tenancy of the entry: per-entry state a caller keeps between walks
// is stale once the generation differs (Forget freed the entry and another
// node, or the same one afresh, took it). Entries are never moved, so an
// index stays below the number of entries the store ever held. fn must not
// call back into the Store. Latest.Values aliases the store's slice: fn
// reads it and copies whatever it keeps, because the next Apply to the node
// overwrites it once the walk has released the lock.
func (s *Store) EachReported(fn func(entry int, gen uint32, stat NodeStat)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for i := range s.entries {
		if e := &s.entries[i]; e.reported {
			fn(i, e.gen, e.stat())
		}
	}
}

// EachWritten is the stepping loop's per-tick read: it calls fn, as
// EachReported does, for every entry written since the previous call — by
// Apply (a stale duplicate included), by an Advance that moved a clock, or
// by Forget — in ascending entry order, and empties the written set. With
// all set it calls fn for every entry holding a measurement instead, and
// empties the set just the same. An entry that holds no measurement (one
// Forget released, or one known only through clock advances) reaches fn
// with Updates == 0. The set has one consumer: EachWritten holds the write
// lock, and two callers would each see only part of what was written.
func (s *Store) EachWritten(all bool, fn func(entry int, gen uint32, stat NodeStat)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if all {
		clear(s.written)
		for i := range s.entries {
			if e := &s.entries[i]; e.reported {
				fn(i, e.gen, e.stat())
			}
		}
		return
	}
	for w, word := range s.written {
		if word == 0 {
			continue
		}
		s.written[w] = 0
		for ; word != 0; word &= word - 1 {
			i := w<<6 + bits.TrailingZeros64(word)
			fn(i, s.entries[i].gen, s.entries[i].stat())
		}
	}
}

// stat assembles the entry's accounting; the caller holds the lock. A node
// known only through clock advances has a zero Latest.
func (e *entry) stat() NodeStat {
	st := NodeStat{Latest: e.latest, Updates: e.updates, LocalStep: e.clock}
	if st.LocalStep > 0 {
		st.Frequency = float64(st.Updates) / float64(st.LocalStep)
	}
	return st
}

// Server is the central collector endpoint.
type Server struct {
	store    *Store
	onUpdate func(Measurement)

	idleTimeout time.Duration
	protoErrs   atomic.Int64
	metrics     ServerMetrics

	mu        sync.Mutex
	listener  net.Listener
	conns     map[net.Conn]struct{}
	seenNodes map[int]bool // node ids that completed a hello at least once
	closed    bool
	wg        sync.WaitGroup
}

// NewServer creates a collector around the store. onUpdate, when non-nil, is
// invoked for each stored measurement, in frame order once the batch frame
// carrying it is stored (serialized per connection, but
// concurrent across connections — the callee must synchronize if needed).
// The measurement's Values alias the connection's decode buffer and are
// valid only until onUpdate returns; the store holds its own copy.
func NewServer(store *Store, onUpdate func(Measurement)) (*Server, error) {
	if store == nil {
		return nil, fmt.Errorf("transport: nil store: %w", ErrProtocol)
	}
	return &Server{
		store:     store,
		onUpdate:  onUpdate,
		conns:     make(map[net.Conn]struct{}),
		seenNodes: make(map[int]bool),
	}, nil
}

// SetIdleTimeout arms a per-connection read deadline: a connection that
// stays silent for this long is dropped, releasing its goroutine and file
// descriptor even when the peer died without a FIN (half-open). Zero (the
// default) never times out. Set it before Listen; it must exceed the
// longest legitimate transmission gap — agents heartbeat at the linger
// cadence whenever their clock advances, so any comfortable multiple of
// the sampling period works.
func (s *Server) SetIdleTimeout(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.idleTimeout = d
}

// ProtocolErrors reports how many connections were dropped for protocol
// violations (a foreign preamble, malformed frames, CRC mismatches, spoofed
// node ids) since the server started.
func (s *Server) ProtocolErrors() int64 { return s.protoErrs.Load() }

// Listen binds the given address ("127.0.0.1:0" for an ephemeral port) and
// starts accepting agents. It returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return "", ErrClosed
	}
	if s.listener != nil {
		return "", fmt.Errorf("transport: already listening: %w", ErrProtocol)
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	s.listener = l
	s.wg.Add(1)
	go s.acceptLoop(l)
	return l.Addr().String(), nil
}

func (s *Server) acceptLoop(l net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := l.Accept()
		if err != nil {
			return // listener closed: the loop's only exit
		}
		if !s.track(conn) {
			// The server was closed between Accept returning and track
			// acquiring the lock. Drop the connection but keep looping: the
			// closed listener makes the next Accept fail, so the loop always
			// exits through the single path above instead of racing Close on
			// two different exits.
			_ = conn.Close()
			continue
		}
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.conns, conn)
}

// armRead refreshes the idle read deadline, when one is configured.
func (s *Server) armRead(conn net.Conn) {
	if s.idleTimeout > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(s.idleTimeout))
	}
}

// serveConn checks the connection preamble and runs the framed read loop.
// Bytes that are not the preamble are outside input (an agent of another
// protocol generation, a port scanner): the connection is dropped and
// counted as one protocol error.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer s.untrack(conn)
	defer conn.Close()

	s.metrics.ConnsTotal.Inc()
	s.metrics.ConnsActive.Add(1)
	defer s.metrics.ConnsActive.Add(-1)

	br := bufio.NewReader(countingReader{r: conn, n: &s.metrics.BytesIn})
	s.armRead(conn)
	var magic [len(magicV2)]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return
	}
	if magic != magicV2 {
		s.protoErrs.Add(1)
		return
	}
	fr := frameReader{br: br}
	s.armRead(conn)
	typ, payload, err := fr.next()
	if err != nil || typ != frameHello {
		if errors.Is(err, errMalformed) || err == nil {
			s.protoErrs.Add(1)
		}
		return
	}
	node, flags, err := parseHello(payload)
	if err != nil {
		s.protoErrs.Add(1)
		return
	}
	s.metrics.FramesIn.Inc() // the hello frame
	s.noteHello(node)
	// A connection bound to one node speaks only for it; a multiplexed one
	// (owner -1) for any node.
	mux := flags&helloFlagMux != 0
	owner := node
	if mux {
		owner = -1
	}
	var dec batchDecoder
	for {
		s.armRead(conn)
		typ, payload, err := fr.next()
		if err != nil {
			if errors.Is(err, errMalformed) {
				s.protoErrs.Add(1)
			}
			return // EOF, closed, idle timeout, or a mangled frame
		}
		s.metrics.FramesIn.Inc()
		switch typ {
		case frameBatch:
			localStep, recs, err := dec.decode(payload)
			if err != nil {
				s.protoErrs.Add(1)
				return
			}
			s.metrics.BatchesIn.Inc()
			s.metrics.BatchWireBytes.Add(int64(len(payload)))
			s.metrics.BatchRawBytes.Add(int64(dec.rawBytes))
			if len(payload) > 0 && payload[0]&batchFlagCompressed != 0 {
				s.metrics.CompressedBatches.Inc()
			}
			n := s.store.ApplyFrame(recs, owner, localStep)
			s.metrics.RecordsIn.Add(int64(n))
			if s.onUpdate != nil {
				for _, m := range recs[:n] {
					s.onUpdate(m)
				}
			}
			if n < len(recs) {
				s.protoErrs.Add(1)
				return // spoofed node id
			}
		case frameHeartbeat:
			hbNode, localStep, err := parseHeartbeat(payload)
			if err != nil || (!mux && hbNode != node) {
				s.protoErrs.Add(1)
				return
			}
			s.metrics.HeartbeatsIn.Inc()
			s.store.Advance(hbNode, localStep)
		default:
			s.protoErrs.Add(1)
			return
		}
	}
}

// Close shuts the server down: stops accepting, closes live connections, and
// waits for handler goroutines to finish. Safe to call more than once.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	if s.listener != nil {
		_ = s.listener.Close()
	}
	for conn := range s.conns {
		_ = conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}
