package persist

import (
	"bytes"
	"cmp"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"orcf/internal/core"
)

// ErrBadConfig reports invalid Manager options.
var ErrBadConfig = errors.New("persist: invalid configuration")

// Options configures a Manager.
type Options struct {
	// Dir is the state directory (created if missing). Required.
	Dir string
	// CheckpointEvery triggers an automatic background checkpoint whenever
	// LogStep records a step divisible by it. Zero means 256; negative
	// disables automatic checkpoints (explicit Checkpoint calls only).
	CheckpointEvery int
	// Fsync makes every WAL append fsync before returning — full
	// single-step durability at a heavy per-step cost. Off, appends are
	// flushed to the OS per record (surviving process crashes) and fsynced
	// at every checkpoint (bounding data loss after an OS crash to one
	// checkpoint interval). Checkpoint files are always fsynced.
	Fsync bool
}

func (o Options) withDefaults() Options {
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = 256
	}
	return o
}

// RecoveryInfo reports what Recover found and did.
type RecoveryInfo struct {
	// CheckpointStep is the step of the restored checkpoint (-1 when the
	// directory held no usable checkpoint and the system started fresh).
	CheckpointStep int
	// ReplayedSteps is how many WAL records were replayed past the
	// checkpoint.
	ReplayedSteps int
	// Steps is the system's step count after recovery.
	Steps int
	// TornTail reports whether a torn or corrupt WAL suffix was discarded
	// (expected after a crash mid-append; the intact prefix was replayed).
	TornTail bool
	// SkippedCheckpoints counts checkpoint files that failed validation and
	// were passed over for an older one.
	SkippedCheckpoints int
}

// Manager gives one core.System durable state: it logs every step's
// measurements to the WAL, periodically checkpoints the full system state in
// the background, and recovers checkpoint + WAL tail on boot.
//
// Concurrency: Recover, LogStep, Step, Checkpoint, and Close must all be
// called from the goroutine that steps the system (the ingest loop) — like
// Step itself they are not concurrent-safe. The expensive parts of a
// checkpoint (gob encoding, CRC, fsync, rename) run on a background
// goroutine over a deep copy, so the ingest loop only ever pays for the
// in-memory state copy. Stats is safe from any goroutine.
type Manager struct {
	sys  *core.System
	opts Options
	fp   uint64
	dims int

	wal       *walWriter
	recovered bool
	closed    bool

	ckptBusy atomic.Bool    // one background checkpoint at a time
	wg       sync.WaitGroup // tracks the in-flight background checkpoint

	checkpoints    atomic.Int64
	ckptErrors     atomic.Int64
	lastCkptStep   atomic.Int64
	lastCkptNanos  atomic.Int64
	ckptWorkNanos  atomic.Int64
	lastCkptWork   atomic.Int64
	walRecords     atomic.Int64
	walBytes       atomic.Int64
	walAppendNanos atomic.Int64
	recoveredStep  atomic.Int64
	replayedSteps  atomic.Int64
}

// Stats is a point-in-time view of the Manager's accounting, shaped for the
// serving plane's /v1/stats and /metrics endpoints.
type Stats struct {
	// Checkpoints counts durably completed checkpoints this process.
	Checkpoints int64
	// CheckpointErrors counts failed checkpoint attempts.
	CheckpointErrors int64
	// LastCheckpointStep is the step of the newest durable checkpoint (0
	// before the first).
	LastCheckpointStep int64
	// LastCheckpointTime is when it completed (zero before the first).
	LastCheckpointTime time.Time
	// LastCheckpointDuration is how long the newest durable checkpoint took
	// to encode and write (zero before the first).
	LastCheckpointDuration time.Duration
	// CheckpointTime is the cumulative wall time spent encoding and durably
	// writing checkpoints this process (successful attempts only; the work
	// usually runs on the background goroutine, off the stepping hot path).
	CheckpointTime time.Duration
	// WALRecords and WALBytes count appended records this process.
	WALRecords int64
	// WALBytes is the total bytes appended to the WAL this process.
	WALBytes int64
	// WALAppendTime is the cumulative wall time LogStep spent appending
	// records — stepping-goroutine time, the WAL's direct cost to the
	// ingest loop.
	WALAppendTime time.Duration
	// RecoveredStep is the step the system resumed from at boot (0 for a
	// fresh start).
	RecoveredStep int64
	// ReplayedSteps is how many WAL records recovery replayed at boot.
	ReplayedSteps int64
}

// New validates the options and prepares a Manager for a freshly
// constructed system. cfg must be the configuration the system was built
// from (it determines the state fingerprint and record shape). Call Recover
// next — before the first Step.
func New(sys *core.System, cfg core.Config, opts Options) (*Manager, error) {
	if sys == nil {
		return nil, fmt.Errorf("persist: nil system: %w", ErrBadConfig)
	}
	if opts.Dir == "" {
		return nil, fmt.Errorf("persist: empty state dir: %w", ErrBadConfig)
	}
	if sys.Steps() != 0 {
		return nil, fmt.Errorf("persist: system already at step %d: %w", sys.Steps(), ErrBadConfig)
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	dims := cfg.Resources
	if dims == 0 {
		dims = 1
	}
	return &Manager{
		sys:  sys,
		opts: opts.withDefaults(),
		fp:   cfg.Fingerprint(),
		dims: dims,
	}, nil
}

// Recover restores the newest valid checkpoint (if any) into the system and
// re-takes the WAL tail's records through core.System.Reapply, stopping with
// ErrMismatch where a plain System's policies store other rows than a record
// (the fingerprint cannot tell policy factories apart). Its argument is
// ignored: it goes once the benchmark stops passing nil. Call it exactly
// once, before any stepping; it finishes by starting a fresh WAL epoch at
// the recovered step. Unusable files — torn checkpoints, WAL records beyond
// a gap — are skipped or removed, never fatal; only I/O failures and replay
// errors are, and a directory whose state belongs to another configuration:
// when a checkpoint or WAL epoch was passed over for its fingerprint, format
// or policy state and nothing was restored, Recover returns ErrMismatch
// before it removes or creates any file.
func (m *Manager) Recover(_ any) (*RecoveryInfo, error) {
	if m.recovered {
		return nil, fmt.Errorf("persist: Recover called twice: %w", ErrBadConfig)
	}
	m.recovered = true

	info := &RecoveryInfo{CheckpointStep: -1}
	// foreign is the first file passed over because another configuration
	// wrote it (as opposed to a torn or corrupt one), nil while none was.
	var foreign error
	ckpts, err := listSteps(m.opts.Dir, "ckpt-", ".ckpt")
	if err != nil {
		return nil, err
	}
	sort.Sort(sort.Reverse(sort.IntSlice(ckpts)))
	for _, step := range ckpts {
		st, err := m.readCheckpoint(step)
		if err != nil {
			if errors.Is(err, ErrCorrupt) || errors.Is(err, ErrMismatch) || errors.Is(err, core.ErrBadState) {
				if errors.Is(err, ErrMismatch) {
					foreign = cmp.Or(foreign, err)
				}
				info.SkippedCheckpoints++
				continue
			}
			return nil, err
		}
		if err := m.sys.RestoreState(st); err != nil {
			// Validation failures leave the system untouched; try older.
			// They are another configuration's state: a policy of another
			// type, say, rejecting the recorded policy bytes.
			if errors.Is(err, core.ErrBadState) && m.sys.Steps() == 0 {
				foreign = cmp.Or(foreign, fmt.Errorf("persist: %s: %w: %w", checkpointName(step), ErrMismatch, err))
				info.SkippedCheckpoints++
				continue
			}
			return nil, err
		}
		info.CheckpointStep = step
		m.lastCkptStep.Store(int64(step))
		break
	}

	wals, err := listSteps(m.opts.Dir, "wal-", ".wal")
	if err != nil {
		return nil, err
	}
	for _, epoch := range wals {
		if epoch > m.sys.Steps() {
			break // unreachable beyond a gap; removed below
		}
		recs, torn, err := readWAL(filepath.Join(m.opts.Dir, walName(epoch)), m.fp, m.dims)
		if err != nil {
			if errors.Is(err, ErrCorrupt) || errors.Is(err, ErrMismatch) {
				info.TornTail = info.TornTail || errors.Is(err, ErrCorrupt)
				if errors.Is(err, ErrMismatch) {
					foreign = cmp.Or(foreign, err)
				}
				break
			}
			return nil, err
		}
		stop := false
		for _, rec := range recs {
			if rec.T <= m.sys.Steps() {
				continue
			}
			if rec.T != m.sys.Steps()+1 {
				stop = true // gap: later records belong to a lost lineage
				break
			}
			if err := m.sys.Reapply(&rec); err != nil {
				if errors.Is(err, core.ErrBadState) { // another lineage's record
					err = fmt.Errorf("%w: %w", ErrMismatch, err)
				}
				return nil, fmt.Errorf("persist: replaying step %d: %w", rec.T, err)
			}
			info.ReplayedSteps++
		}
		if stop || torn {
			info.TornTail = info.TornTail || torn
			break
		}
	}
	if foreign != nil && info.CheckpointStep < 0 && info.ReplayedSteps == 0 {
		// Starting fresh would delete the other configuration's WAL tail
		// below.
		return nil, fmt.Errorf("persist: %s holds only another configuration's state; restart with "+
			"the flags that wrote it, or move it aside to start fresh: %w", m.opts.Dir, foreign)
	}
	info.Steps = m.sys.Steps()
	m.recoveredStep.Store(int64(info.Steps))
	m.replayedSteps.Store(int64(info.ReplayedSteps))

	// Drop WAL epochs past the recovered step: they belong to a lineage this
	// run now diverges from, and a later recovery must not chain into them.
	for _, epoch := range wals {
		if epoch > m.sys.Steps() {
			if err := os.Remove(filepath.Join(m.opts.Dir, walName(epoch))); err != nil {
				return nil, fmt.Errorf("persist: %w", err)
			}
		}
	}
	// A checkpoint cut short before its rename leaves WriteBlobAtomic's
	// temporary file, which nothing else reads or removes. None of this
	// Manager's can be in flight before Recover returns.
	entries, err := os.ReadDir(m.opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), "tmp-") {
			if err := os.Remove(filepath.Join(m.opts.Dir, e.Name())); err != nil {
				return nil, fmt.Errorf("persist: %w", err)
			}
		}
	}
	m.wal, err = createWAL(filepath.Join(m.opts.Dir, walName(m.sys.Steps())),
		m.fp, m.dims, m.opts.Fsync)
	if err != nil {
		return nil, err
	}
	return info, nil
}

// readCheckpoint loads and decodes one checkpoint file.
func (m *Manager) readCheckpoint(step int) (*core.State, error) {
	payload, err := ReadBlob(filepath.Join(m.opts.Dir, checkpointName(step)), KindCheckpoint)
	if err != nil {
		return nil, err
	}
	st := new(core.State)
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(st); err != nil {
		return nil, fmt.Errorf("persist: %s: %w: %v", checkpointName(step), ErrCorrupt, err)
	}
	if st.Fingerprint != m.fp {
		return nil, fmt.Errorf("persist: %s: fingerprint %#x, want %#x: %w",
			checkpointName(step), st.Fingerprint, m.fp, ErrMismatch)
	}
	return st, nil
}

// LogStep appends one completed step's record to the WAL and, when the step
// count hits the checkpoint interval, kicks off a background checkpoint.
// Call it after a successful System.Step or StepArrivals with the record of
// what that step consumed (core.Roster.Record of the roster at Step entry; the
// Manager's Step method does this for plain systems). Logging after the step
// means a crash between the two loses at most that single step — recovery
// resumes from the previous one.
func (m *Manager) LogStep(rec *core.StepRecord) error {
	if !m.recovered || m.closed {
		return fmt.Errorf("persist: LogStep before Recover or after Close: %w", ErrBadConfig)
	}
	t0 := time.Now()
	n, err := m.wal.append(rec)
	m.walAppendNanos.Add(int64(time.Since(t0)))
	if err != nil {
		return err
	}
	m.walRecords.Add(1)
	m.walBytes.Add(int64(n))
	if m.opts.CheckpointEvery > 0 && rec.T%m.opts.CheckpointEvery == 0 {
		m.maybeCheckpoint()
	}
	return nil
}

// Step drives the managed system one step and logs it: a convenience for
// systems whose transmission decisions are made by their own policies (the
// serve.StoreStepper path logs explicitly instead, to record network
// arrivals).
func (m *Manager) Step(x [][]float64) (*core.StepResult, error) {
	roster := m.sys.Roster() // before stepping: the layout x is shaped by
	res, err := m.sys.Step(x)
	if err != nil {
		return nil, err
	}
	rec := roster.Record(res.T, x, res.Transmitted)
	if err := m.LogStep(&rec); err != nil {
		return nil, err
	}
	return res, nil
}

// Checkpoint synchronously exports, encodes, and durably writes the current
// state, then rotates the WAL and prunes old epochs. Use it on shutdown
// (SIGTERM); steady-state checkpoints go through LogStep's background path.
// It waits for any in-flight background checkpoint first.
func (m *Manager) Checkpoint() error {
	if !m.recovered || m.closed {
		return fmt.Errorf("persist: Checkpoint before Recover or after Close: %w", ErrBadConfig)
	}
	m.wg.Wait()
	if !m.ckptBusy.CompareAndSwap(false, true) {
		return nil // lost a race with a concurrent close-path checkpoint
	}
	defer m.ckptBusy.Store(false)
	job, err := m.prepareCheckpoint()
	if err != nil || job == nil {
		return err
	}
	if err := job(); err != nil {
		m.ckptErrors.Add(1)
		return err
	}
	return nil
}

// maybeCheckpoint starts a background checkpoint unless one is in flight.
func (m *Manager) maybeCheckpoint() {
	if !m.ckptBusy.CompareAndSwap(false, true) {
		return // previous checkpoint still encoding; skip this interval
	}
	job, err := m.prepareCheckpoint()
	if err != nil {
		m.ckptErrors.Add(1)
		m.ckptBusy.Store(false)
		return
	}
	if job == nil {
		m.ckptBusy.Store(false)
		return
	}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		defer m.ckptBusy.Store(false)
		if err := job(); err != nil {
			m.ckptErrors.Add(1)
		}
	}()
}

// prepareCheckpoint does the synchronous part of a checkpoint — the
// in-memory deep copy and the WAL rotation — and returns the slow job
// (encode, write, fsync, prune) to run on either the caller's or a
// background goroutine. It returns a nil job when the state is already
// checkpointed. Must run on the stepping goroutine with ckptBusy held.
func (m *Manager) prepareCheckpoint() (func() error, error) {
	// Checked before the export: the deep copy is the expensive part, and a
	// shutdown checkpoint often follows a periodic one at the same step.
	if int64(m.sys.Steps()) == m.lastCkptStep.Load() {
		return nil, nil
	}
	st, err := m.sys.ExportState()
	if err != nil {
		return nil, err
	}
	// Rotate first: records after step T belong to the new epoch whether or
	// not the checkpoint write below succeeds (recovery chains across
	// epochs, so a failed checkpoint just means replaying one epoch more).
	// The new epoch file is created before the old writer closes, so a
	// failed rotation leaves the old writer intact and appends simply keep
	// extending the old epoch — recovery chains through it either way.
	next, err := createWAL(filepath.Join(m.opts.Dir, walName(st.T)),
		m.fp, m.dims, m.opts.Fsync)
	if err != nil {
		return nil, err
	}
	errClose := m.wal.close()
	m.wal = next
	if errClose != nil {
		return nil, errClose
	}
	return func() error {
		t0 := time.Now()
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(st); err != nil {
			return fmt.Errorf("persist: encoding checkpoint: %w", err)
		}
		path := filepath.Join(m.opts.Dir, checkpointName(st.T))
		if err := WriteBlobAtomic(path, KindCheckpoint, buf.Bytes()); err != nil {
			return err
		}
		d := int64(time.Since(t0))
		m.checkpoints.Add(1)
		m.ckptWorkNanos.Add(d)
		m.lastCkptWork.Store(d)
		m.lastCkptStep.Store(int64(st.T))
		m.lastCkptNanos.Store(time.Now().UnixNano())
		m.prune(st.T)
		return nil
	}, nil
}

// retain is how many checkpoints (with their WAL epochs) a Manager keeps: the
// newest plus one fallback, so a checkpoint torn by a crash mid-write never
// leaves recovery empty-handed.
const retain = 2

// prune removes checkpoints beyond the retention count and the WAL epochs
// older than the oldest retained checkpoint (each retained checkpoint keeps
// its own epoch, so recovery can always chain forward from any of them).
func (m *Manager) prune(newest int) {
	ckpts, err := listSteps(m.opts.Dir, "ckpt-", ".ckpt")
	if err != nil {
		return // pruning is best-effort; recovery tolerates extra files
	}
	sort.Sort(sort.Reverse(sort.IntSlice(ckpts)))
	oldestKept := newest
	kept := 0
	for _, step := range ckpts {
		if kept < retain {
			kept++
			if step < oldestKept {
				oldestKept = step
			}
			continue
		}
		os.Remove(filepath.Join(m.opts.Dir, checkpointName(step)))
	}
	wals, err := listSteps(m.opts.Dir, "wal-", ".wal")
	if err != nil {
		return
	}
	for _, epoch := range wals {
		if epoch < oldestKept {
			os.Remove(filepath.Join(m.opts.Dir, walName(epoch)))
		}
	}
}

// Stats returns the Manager's accounting; safe from any goroutine.
func (m *Manager) Stats() Stats {
	st := Stats{
		Checkpoints:            m.checkpoints.Load(),
		CheckpointErrors:       m.ckptErrors.Load(),
		LastCheckpointStep:     m.lastCkptStep.Load(),
		LastCheckpointDuration: time.Duration(m.lastCkptWork.Load()),
		CheckpointTime:         time.Duration(m.ckptWorkNanos.Load()),
		WALRecords:             m.walRecords.Load(),
		WALBytes:               m.walBytes.Load(),
		WALAppendTime:          time.Duration(m.walAppendNanos.Load()),
		RecoveredStep:          m.recoveredStep.Load(),
		ReplayedSteps:          m.replayedSteps.Load(),
	}
	if ns := m.lastCkptNanos.Load(); ns != 0 {
		st.LastCheckpointTime = time.Unix(0, ns)
	}
	return st
}

// Close waits for any in-flight background checkpoint and closes the WAL.
// It does not checkpoint; call Checkpoint first for a clean shutdown.
func (m *Manager) Close() error {
	if m.closed {
		return nil
	}
	m.closed = true
	m.wg.Wait()
	if m.wal != nil {
		return m.wal.close()
	}
	return nil
}
