package persist

import (
	"errors"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"orcf/internal/core"
	"orcf/internal/forecast"
	"orcf/internal/transmit"
)

// testInput is the deterministic waveform shared by all persistence tests:
// a crashed run regenerates exactly the measurements an uninterrupted run
// saw.
func testInput(nodes, resources, t int) [][]float64 {
	x := make([][]float64, nodes)
	for i := range x {
		x[i] = make([]float64, resources)
		for d := range x[i] {
			phase := float64(i*5+d*3) * 0.7
			v := 0.5 + 0.4*math.Sin(float64(t)*0.17+phase)
			x[i][d] = math.Min(1, math.Max(0, v))
		}
	}
	return x
}

func testConfig() core.Config {
	return core.Config{
		Nodes:             8,
		Resources:         2,
		K:                 3,
		MPrime:            3,
		InitialCollection: 15,
		RetrainEvery:      10,
		Seed:              5,
		SnapshotHorizon:   4,
		Zoo: forecast.Pinned(func() forecast.Model {
			m, err := forecast.NewSES(0.3)
			if err != nil {
				panic(err)
			}
			return m
		}),
	}
}

func newManager(t *testing.T, dir string, opts Options) *Manager {
	t.Helper()
	cfg := testConfig()
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatalf("system: %v", err)
	}
	opts.Dir = dir
	m, err := New(sys, cfg, opts)
	if err != nil {
		t.Fatalf("manager: %v", err)
	}
	return m
}

// runTo steps the managed system up to (and including) step `to`, waiting
// out each background checkpoint so every interval checkpoint lands
// deterministically (the production skip-if-busy behaviour would let a fast
// synthetic loop outrun the fsyncs; TestCheckpointDoesNotBlockStepping
// exercises the overlapping path).
func runTo(t *testing.T, m *Manager, to int) {
	t.Helper()
	cfg := testConfig()
	for step := m.sys.Steps() + 1; step <= to; step++ {
		if _, err := m.Step(testInput(cfg.Nodes, cfg.Resources, step)); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		m.wg.Wait()
	}
}

// referenceForecast runs an uninterrupted system to `to` and forecasts.
func referenceForecast(t *testing.T, to, h int) [][][]float64 {
	t.Helper()
	cfg := testConfig()
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatalf("ref system: %v", err)
	}
	for step := 1; step <= to; step++ {
		if _, err := sys.Step(testInput(cfg.Nodes, cfg.Resources, step)); err != nil {
			t.Fatalf("ref step %d: %v", step, err)
		}
	}
	f, err := sys.Forecast(h)
	if err != nil {
		t.Fatalf("ref forecast: %v", err)
	}
	return f
}

// mustForecastEqualReference asserts the managed system at its current step
// forecasts bit-identically to an uninterrupted run of the same length.
func mustForecastEqualReference(t *testing.T, m *Manager, h int) {
	t.Helper()
	got, err := m.sys.Forecast(h)
	if err != nil {
		t.Fatalf("forecast at step %d: %v", m.sys.Steps(), err)
	}
	want := referenceForecast(t, m.sys.Steps(), h)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("step %d: recovered forecast diverges from uninterrupted run", m.sys.Steps())
	}
}

func TestRecoverFreshDirectory(t *testing.T) {
	t.Parallel()
	m := newManager(t, t.TempDir(), Options{})
	info, err := m.Recover(nil)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if info.CheckpointStep != -1 || info.ReplayedSteps != 0 || info.Steps != 0 {
		t.Fatalf("fresh recovery info = %+v", info)
	}
	runTo(t, m, 3)
	if err := m.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestRecoverCheckpointPlusWAL is the end-to-end durability property: kill
// the manager (no clean shutdown) at an arbitrary step, reopen, and the
// recovered system must forecast bit-identically to an uninterrupted run.
func TestRecoverCheckpointPlusWAL(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewPCG(3, 9))
	crashes := map[int]bool{1: true, 12: true, 20: true, 41: true}
	for len(crashes) < 7 {
		crashes[1+rng.IntN(44)] = true
	}
	for crash := range crashes {
		dir := t.TempDir()
		m := newManager(t, dir, Options{CheckpointEvery: 10})
		if _, err := m.Recover(nil); err != nil {
			t.Fatalf("crash %d: initial recover: %v", crash, err)
		}
		runTo(t, m, crash)
		// Simulated kill -9: wait out any background checkpoint, then drop
		// the manager without Close/Checkpoint. The OS file state at this
		// point is what a real crash would leave behind.
		m.wg.Wait()

		re := newManager(t, dir, Options{CheckpointEvery: 10})
		info, err := re.Recover(nil)
		if err != nil {
			t.Fatalf("crash %d: recover: %v", crash, err)
		}
		if info.Steps != crash {
			t.Fatalf("crash %d: recovered to step %d (info %+v)", crash, info.Steps, info)
		}
		runTo(t, re, 50)
		mustForecastEqualReference(t, re, 3)
		if err := re.Close(); err != nil {
			t.Fatalf("crash %d: close: %v", crash, err)
		}
	}
}

// TestRecoverStopsWhenReplayDiverges pins the default replay's check: a WAL
// written under the default Adaptive policies, replayed whole (no
// checkpoint) into a System whose factory builds Uniform policies, has the
// same fingerprint, since policy factories are not hashed, but re-decides
// other transmissions, so Recover stops with ErrMismatch. The same WAL
// replays cleanly under the factory that wrote it.
func TestRecoverStopsWhenReplayDiverges(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	m := newManager(t, dir, Options{CheckpointEvery: -1})
	if _, err := m.Recover(nil); err != nil {
		t.Fatal(err)
	}
	runTo(t, m, 30)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	recoverWith := func(policy core.PolicyFactory) (*RecoveryInfo, error) {
		cfg := testConfig()
		cfg.Policy = policy
		sys, err := core.NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		re, err := New(sys, cfg, Options{Dir: dir, CheckpointEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		return re.Recover(nil)
	}
	uniform := func(int) (transmit.Policy, error) { return transmit.NewUniform(0.3) }
	if info, err := recoverWith(uniform); !errors.Is(err, ErrMismatch) {
		t.Fatalf("replay under Uniform policies: %+v, %v; want ErrMismatch", info, err)
	}
	if info, err := recoverWith(nil); err != nil || info.ReplayedSteps != 30 {
		t.Fatalf("replay under the writing policies: %+v, %v; want 30 replayed steps", info, err)
	}
}

// TestRecoverSkipsCheckpointOfOtherPolicyType: the state bytes of the
// default Adaptive policies carry their type, so a System whose factory
// builds Uniform policies — same fingerprint, since policy factories are not
// hashed — does not take them as Uniform credit: Recover skips the
// checkpoint as it skips one of another configuration. With nothing of its
// own configuration left in the directory, Recover then refuses with
// ErrMismatch rather than start fresh, which would delete the WAL tail past
// the checkpoint; so does a recovery under another K, whose fingerprint
// differs. Neither may remove or create a file: the configuration that wrote
// the directory recovers the checkpoint and the whole tail afterwards.
func TestRecoverSkipsCheckpointOfOtherPolicyType(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	m := newManager(t, dir, Options{CheckpointEvery: -1})
	if _, err := m.Recover(nil); err != nil {
		t.Fatal(err)
	}
	runTo(t, m, 30)
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	runTo(t, m, 35)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	listing := func() []string {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		return names
	}
	written := listing()
	recoverWith := func(cfg core.Config) (*RecoveryInfo, error) {
		sys, err := core.NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		re, err := New(sys, cfg, Options{Dir: dir, CheckpointEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		return re.Recover(nil)
	}
	uniform := testConfig()
	uniform.Policy = func(int) (transmit.Policy, error) { return transmit.NewUniform(0.3) }
	otherK := testConfig()
	otherK.K = 2
	for _, c := range []struct {
		name string
		cfg  core.Config
	}{{"Uniform policies", uniform}, {"K=2", otherK}} {
		if info, err := recoverWith(c.cfg); !errors.Is(err, ErrMismatch) {
			t.Fatalf("recovery under %s: %+v, %v; want ErrMismatch", c.name, info, err)
		}
		if got := listing(); !slices.Equal(got, written) {
			t.Fatalf("recovery under %s left %v, want %v untouched", c.name, got, written)
		}
	}
	info, err := recoverWith(testConfig())
	if err != nil || info.CheckpointStep != 30 || info.Steps != 35 || info.ReplayedSteps != 5 {
		t.Fatalf("recovery under the writing configuration: %+v, %v; want the checkpoint at 30 and steps 31–35 replayed", info, err)
	}
}

// TestRecoverRemovesCheckpointTempFiles: a crash inside WriteBlobAtomic
// leaves its tmp- file behind; the next Recover removes it and still
// restores the checkpoint and the WAL tail.
func TestRecoverRemovesCheckpointTempFiles(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	m := newManager(t, dir, Options{CheckpointEvery: -1})
	if _, err := m.Recover(nil); err != nil {
		t.Fatal(err)
	}
	runTo(t, m, 20)
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	runTo(t, m, 25)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, "tmp-4242")
	if err := os.WriteFile(torn, []byte("half a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}

	re := newManager(t, dir, Options{CheckpointEvery: -1})
	defer re.Close()
	info, err := re.Recover(nil)
	if err != nil || info.CheckpointStep != 20 || info.Steps != 25 {
		t.Fatalf("recovery: %+v, %v; want the checkpoint at 20 and steps to 25", info, err)
	}
	if _, err := os.Stat(torn); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("the interrupted checkpoint's temporary file survived recovery: %v", err)
	}
}

// TestRecoverSlotAppendedAndVacatedBetweenSteps: a member that joins into a
// new slot and departs before the next step leaves a WAL record whose roster
// ends in a tombstone the recovering system has never had. Replay appends
// it, so the record's rows fit the fleet, and the recovered state is the
// crashed run's.
func TestRecoverSlotAppendedAndVacatedBetweenSteps(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	m := newManager(t, dir, Options{CheckpointEvery: -1})
	if _, err := m.Recover(nil); err != nil {
		t.Fatal(err)
	}
	runTo(t, m, 20)
	if err := m.sys.AddNodes(100); err != nil {
		t.Fatal(err)
	}
	if err := m.sys.RemoveNodes(100); err != nil {
		t.Fatal(err)
	}
	x := testInput(m.sys.Slots(), testConfig().Resources, 21)
	x[len(x)-1] = nil
	if _, err := m.Step(x); err != nil {
		t.Fatal(err)
	}
	m.wg.Wait()
	want, err := m.sys.ExportState()
	if err != nil {
		t.Fatal(err)
	}

	re := newManager(t, dir, Options{CheckpointEvery: -1})
	info, err := re.Recover(nil)
	if err != nil || info.Steps != 21 {
		t.Fatalf("recovery: %+v, %v; want 21 steps", info, err)
	}
	got, err := re.sys.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []*core.State{got, want} {
		for _, e := range st.Ensembles {
			e.TrainTime = 0
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered state differs from the crashed run's:\n got IDs %v alive %v\nwant IDs %v alive %v",
			got.IDs, got.Alive, want.IDs, want.Alive)
	}
}

// TestRecoverAfterCleanShutdown exercises the SIGTERM path: Checkpoint +
// Close, then reopen with zero replay.
func TestRecoverAfterCleanShutdown(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	m := newManager(t, dir, Options{CheckpointEvery: -1})
	if _, err := m.Recover(nil); err != nil {
		t.Fatalf("recover: %v", err)
	}
	runTo(t, m, 23)
	if err := m.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	re := newManager(t, dir, Options{})
	info, err := re.Recover(nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if info.CheckpointStep != 23 || info.ReplayedSteps != 0 || info.Steps != 23 {
		t.Fatalf("clean-shutdown recovery info = %+v", info)
	}
	runTo(t, re, 30)
	mustForecastEqualReference(t, re, 3)
	if err := re.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// countingPolicy is the adaptive policy counting its MarshalState calls:
// ExportState marshals every live member's policy once.
type countingPolicy struct {
	*transmit.Adaptive
	marshals *atomic.Int64
}

func (p countingPolicy) MarshalState() ([]byte, error) {
	p.marshals.Add(1)
	return p.Adaptive.MarshalState()
}

// TestCheckpointAtCheckpointedStepExportsNothing pins that a checkpoint at
// the step the last one was written at — a shutdown checkpoint right after a
// periodic one — returns before the state export, the deep copy on the
// stepping goroutine: no policy is marshalled the second time.
func TestCheckpointAtCheckpointedStepExportsNothing(t *testing.T) {
	t.Parallel()
	var marshals atomic.Int64
	cfg := testConfig()
	cfg.Policy = func(int) (transmit.Policy, error) {
		p, err := transmit.NewAdaptive(transmit.AdaptiveConfig{Budget: 0.5})
		return countingPolicy{p, &marshals}, err
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(sys, cfg, Options{Dir: t.TempDir(), CheckpointEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Recover(nil); err != nil {
		t.Fatal(err)
	}
	runTo(t, m, 10) // the periodic checkpoint at step 10
	if got := marshals.Load(); got != int64(cfg.Nodes) {
		t.Fatalf("periodic checkpoint marshalled %d policies, want %d", got, cfg.Nodes)
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := marshals.Load(); got != int64(cfg.Nodes) {
		t.Fatalf("a second checkpoint at step 10 marshalled %d more policies, want 0", got-int64(cfg.Nodes))
	}
	runTo(t, m, 11)
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := marshals.Load(); got != int64(2*cfg.Nodes) {
		t.Fatalf("a checkpoint at step 11 brought the marshal count to %d, want %d", got, 2*cfg.Nodes)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTornWrites is the crash-corruption property: truncating the newest
// checkpoint or the WAL at arbitrary byte offsets must never panic or fail
// recovery — it falls back to the previous checkpoint and the intact WAL
// prefix, and the recovered system still matches the uninterrupted run at
// whatever step it recovered to.
func TestTornWrites(t *testing.T) {
	t.Parallel()
	seed := func(t *testing.T) string {
		t.Helper()
		dir := t.TempDir()
		m := newManager(t, dir, Options{CheckpointEvery: 10})
		if _, err := m.Recover(nil); err != nil {
			t.Fatalf("seed recover: %v", err)
		}
		runTo(t, m, 37) // checkpoints at 10/20/30 (retain 2 → 20, 30), WAL to 37
		m.wg.Wait()
		return dir
	}

	truncate := func(t *testing.T, path string, keep int64) {
		t.Helper()
		if err := os.Truncate(path, keep); err != nil {
			t.Fatalf("truncate %s: %v", path, err)
		}
	}

	recoverAndVerify := func(t *testing.T, dir string, minStep int) {
		t.Helper()
		re := newManager(t, dir, Options{})
		info, err := re.Recover(nil)
		if err != nil {
			t.Fatalf("recover: %v", err)
		}
		if info.Steps < minStep {
			t.Fatalf("recovered to %d, want ≥ %d (info %+v)", info.Steps, minStep, info)
		}
		// Continue past initial training so forecasts are comparable.
		runTo(t, re, max(info.Steps+5, 20))
		mustForecastEqualReference(t, re, 3)
		if err := re.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	}

	t.Run("torn newest checkpoint", func(t *testing.T) {
		t.Parallel()
		rng := rand.New(rand.NewPCG(7, 1))
		for trial := 0; trial < 4; trial++ {
			dir := seed(t)
			path := filepath.Join(dir, checkpointName(30))
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatalf("stat: %v", err)
			}
			truncate(t, path, rng.Int64N(fi.Size()))
			// Checkpoint 20 + WAL chain still reach step 37.
			recoverAndVerify(t, dir, 37)
		}
	})

	t.Run("torn wal tail", func(t *testing.T) {
		t.Parallel()
		rng := rand.New(rand.NewPCG(7, 2))
		for trial := 0; trial < 4; trial++ {
			dir := seed(t)
			path := filepath.Join(dir, walName(30))
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatalf("stat: %v", err)
			}
			truncate(t, path, rng.Int64N(fi.Size()))
			// At worst the whole 30-epoch WAL is gone; checkpoint 30 holds.
			recoverAndVerify(t, dir, 30)
		}
	})

	t.Run("flipped wal byte", func(t *testing.T) {
		t.Parallel()
		dir := seed(t)
		path := filepath.Join(dir, walName(30))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		data[len(data)/2] ^= 0xff
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatalf("write: %v", err)
		}
		recoverAndVerify(t, dir, 30)
	})

	t.Run("everything torn", func(t *testing.T) {
		t.Parallel()
		dir := seed(t)
		for _, name := range []string{checkpointName(20), checkpointName(30), walName(20), walName(30)} {
			truncate(t, filepath.Join(dir, name), 3)
		}
		// Retention already pruned the pre-20 epochs, so with every
		// remaining file torn the only consistent state left is a fresh
		// start — recovery must land there cleanly, never panic.
		recoverAndVerify(t, dir, 0)
	})
}

// TestRetention pins the retention bound: after three checkpoints and after
// six, exactly the newest two checkpoint files remain, each with its own WAL
// epoch and no other.
func TestRetention(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		steps int
		want  []int
	}{
		{15, []int{10, 15}}, // checkpoints at 5, 10 and 15
		{31, []int{25, 30}},
	} {
		dir := t.TempDir()
		m := newManager(t, dir, Options{CheckpointEvery: 5})
		if _, err := m.Recover(nil); err != nil {
			t.Fatalf("recover: %v", err)
		}
		runTo(t, m, tc.steps)
		m.wg.Wait()
		st := m.Stats()
		if err := m.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		ckpts, err := listSteps(dir, "ckpt-", ".ckpt")
		if err != nil {
			t.Fatalf("list: %v", err)
		}
		wals, err := listSteps(dir, "wal-", ".wal")
		if err != nil {
			t.Fatalf("list: %v", err)
		}
		if !reflect.DeepEqual(ckpts, tc.want) || !reflect.DeepEqual(wals, tc.want) {
			t.Fatalf("after %d steps: checkpoints %v and WAL epochs %v retained, want %v for both",
				tc.steps, ckpts, wals, tc.want)
		}
		if st.Checkpoints != int64(tc.steps/5) || st.LastCheckpointStep != int64(tc.want[1]) || st.WALRecords != int64(tc.steps) {
			t.Fatalf("stats = %+v", st)
		}
		if st.WALAppendTime <= 0 {
			t.Fatalf("WALAppendTime = %v after %d appends, want > 0", st.WALAppendTime, st.WALRecords)
		}
		if st.LastCheckpointDuration <= 0 || st.CheckpointTime < st.LastCheckpointDuration {
			t.Fatalf("checkpoint durations: last %v, cumulative %v — want 0 < last <= cumulative",
				st.LastCheckpointDuration, st.CheckpointTime)
		}
	}
}

// TestCheckpointDoesNotBlockStepping pins the hot-path guarantee: while a
// background checkpoint encodes and fsyncs, the ingest loop keeps stepping
// and concurrent snapshot readers keep forecasting. Run under -race this
// also proves the exported state shares nothing with the live system.
func TestCheckpointDoesNotBlockStepping(t *testing.T) {
	t.Parallel()
	m := newManager(t, t.TempDir(), Options{CheckpointEvery: 3})
	if _, err := m.Recover(nil); err != nil {
		t.Fatalf("recover: %v", err)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if snap := m.sys.Snapshot(); snap != nil && snap.Ready() {
				if _, err := snap.Forecast(2); err != nil {
					t.Errorf("concurrent snapshot forecast: %v", err)
					return
				}
			}
		}
	}()
	// Step without waiting for the background checkpoints, so encoding and
	// stepping genuinely overlap.
	cfg := testConfig()
	for step := 1; step <= 60; step++ {
		if _, err := m.Step(testInput(cfg.Nodes, cfg.Resources, step)); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	close(stop)
	<-done
	if err := m.Checkpoint(); err != nil {
		t.Fatalf("final checkpoint: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if st := m.Stats(); st.Checkpoints == 0 {
		t.Fatal("no background checkpoint completed")
	}
}

func TestLogStepBeforeRecover(t *testing.T) {
	t.Parallel()
	m := newManager(t, t.TempDir(), Options{})
	cfg := testConfig()
	rec := m.sys.Roster().Record(1, testInput(cfg.Nodes, cfg.Resources, 1), make([]bool, cfg.Nodes))
	if err := m.LogStep(&rec); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("LogStep before Recover: %v, want ErrBadConfig", err)
	}
}

func TestBlobRoundTripAndCorruption(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	path := filepath.Join(dir, "blob")
	payload := []byte("the quick brown fox")
	if err := WriteBlobAtomic(path, KindCheckpoint, payload); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := ReadBlob(path, KindCheckpoint)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if string(got) != string(payload) {
		t.Fatalf("payload = %q", got)
	}
	if _, err := ReadBlob(path, KindWAL); !errors.Is(err, ErrMismatch) {
		t.Fatalf("wrong kind: %v, want ErrMismatch", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("raw read: %v", err)
	}
	data[len(data)-6] ^= 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("raw write: %v", err)
	}
	if _, err := ReadBlob(path, KindCheckpoint); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupted payload: %v, want ErrCorrupt", err)
	}
}

// --- model-zoo selection durability ---

// zooConfig mirrors testConfig but runs a two-candidate model zoo with a
// tight selection window and a FitWindow, so crash/restore exercises the
// selection state (accuracy rings, streak counters, champions) and the
// trimmed-series format together.
func zooConfig(t *testing.T) core.Config {
	t.Helper()
	cands, err := forecast.Zoo("historical-mean", "sample-and-hold")
	if err != nil {
		t.Fatalf("zoo: %v", err)
	}
	return core.Config{
		Nodes:             8,
		Resources:         2,
		K:                 2,
		MPrime:            3,
		InitialCollection: 10,
		RetrainEvery:      8,
		FitWindow:         12,
		Seed:              5,
		SnapshotHorizon:   4,
		Zoo:               cands,
		Selection:         forecast.SelectionConfig{Window: 6, Streak: 3, Margin: 1e-9},
	}
}

// zooInput is a stationary-then-trending waveform: historical-mean wins the
// flat phase, sample-and-hold wins once the ramp starts, so champion
// switches (and the streaks leading up to them) happen mid-run.
func zooInput(nodes, resources, t int) [][]float64 {
	x := make([][]float64, nodes)
	for i := range x {
		x[i] = make([]float64, resources)
		for d := range x[i] {
			base := 0.3 + 0.05*float64(i%3) + 0.02*float64(d)
			if t > 25 {
				base += 0.004 * float64(t-25)
			}
			x[i][d] = math.Min(1, base)
		}
	}
	return x
}

// TestRecoverZooMidSelection is the selection-durability property: crash the
// manager at steps straddling the regime change (mid-streak, mid-switch),
// recover from checkpoint+WAL, and the zoo must resume bit-identically —
// same champions, accuracy windows, streaks, switch counts, and forecasts as
// an uninterrupted run.
func TestRecoverZooMidSelection(t *testing.T) {
	t.Parallel()
	const final = 55
	cfg := zooConfig(t)

	// Uninterrupted reference run.
	ref, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatalf("ref system: %v", err)
	}
	for step := 1; step <= final; step++ {
		if _, err := ref.Step(zooInput(cfg.Nodes, cfg.Resources, step)); err != nil {
			t.Fatalf("ref step %d: %v", step, err)
		}
	}
	refForecast, err := ref.Forecast(3)
	if err != nil {
		t.Fatalf("ref forecast: %v", err)
	}
	wantSel := make([]*forecast.SelectionInfo, cfg.Resources)
	switches := 0
	for tr := range wantSel {
		wantSel[tr] = ref.ModelSelection(tr)
		switches += wantSel[tr].SwitchTotal
	}
	if switches == 0 {
		t.Fatal("reference run never switched champions; regime change too weak")
	}

	for _, crash := range []int{11, 27, 31, 38} {
		dir := t.TempDir()
		mk := func() *Manager {
			sys, err := core.NewSystem(cfg)
			if err != nil {
				t.Fatalf("crash %d: system: %v", crash, err)
			}
			m, err := New(sys, cfg, Options{Dir: dir, CheckpointEvery: 9})
			if err != nil {
				t.Fatalf("crash %d: manager: %v", crash, err)
			}
			return m
		}
		m := mk()
		if _, err := m.Recover(nil); err != nil {
			t.Fatalf("crash %d: initial recover: %v", crash, err)
		}
		for step := 1; step <= crash; step++ {
			if _, err := m.Step(zooInput(cfg.Nodes, cfg.Resources, step)); err != nil {
				t.Fatalf("crash %d: step %d: %v", crash, step, err)
			}
			m.wg.Wait()
		}
		m.wg.Wait() // simulated kill -9: no Close, no final checkpoint

		re := mk()
		info, err := re.Recover(nil)
		if err != nil {
			t.Fatalf("crash %d: recover: %v", crash, err)
		}
		if info.Steps != crash {
			t.Fatalf("crash %d: recovered to %d (info %+v)", crash, info.Steps, info)
		}
		for step := crash + 1; step <= final; step++ {
			if _, err := re.Step(zooInput(cfg.Nodes, cfg.Resources, step)); err != nil {
				t.Fatalf("crash %d: resumed step %d: %v", crash, step, err)
			}
			re.wg.Wait()
		}
		got, err := re.sys.Forecast(3)
		if err != nil {
			t.Fatalf("crash %d: forecast: %v", crash, err)
		}
		if !reflect.DeepEqual(got, refForecast) {
			t.Fatalf("crash %d: recovered forecast diverges from uninterrupted run", crash)
		}
		for tr := range wantSel {
			if !reflect.DeepEqual(re.sys.ModelSelection(tr), wantSel[tr]) {
				t.Fatalf("crash %d: tracker %d selection state diverges:\n%+v\nvs\n%+v",
					crash, tr, re.sys.ModelSelection(tr), wantSel[tr])
			}
		}
		if err := re.Close(); err != nil {
			t.Fatalf("crash %d: close: %v", crash, err)
		}
	}
}
