package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"dbpsim/internal/cache"
	"dbpsim/internal/cpu"
	"dbpsim/internal/detmap"
	"dbpsim/internal/memctrl"
	"dbpsim/internal/obs"
	"dbpsim/internal/paging"
	"dbpsim/internal/profile"
	"dbpsim/internal/stats"
)

// SnapshotVersion is the snapshot blob format version. A reader accepts
// exactly its own version and refuses every other with a *RestoreError, on
// which callers rerun from cycle 0; any payload change bumps it.
//
// Version 2 made every map-shaped state field encode deterministically
// (sorted keys via detmap.Map), so blobs of identical machine state are
// byte-identical. Version 3 stores the scheduler's and the partition
// policy's state as the bytes their own Snapshot methods return.
const SnapshotVersion uint32 = 3

// snapshotMagic opens every snapshot blob.
var snapshotMagic = [8]byte{'D', 'B', 'P', 'S', 'N', 'A', 'P', 0}

// snapshotHeaderLen is magic + version + config hash + payload hash +
// payload length.
const snapshotHeaderLen = 8 + 4 + 32 + 32 + 8

// RestoreError marks a snapshot that could not be restored (corrupt bytes,
// version or configuration mismatch, shape drift). Callers holding the
// original run request should treat it as "checkpoint unusable" and fall
// back to a clean rerun; the System that failed mid-restore must be
// discarded. errors.As(err, *&RestoreError{}) distinguishes it from
// simulation errors.
type RestoreError struct {
	Err error
}

func (e *RestoreError) Error() string { return "sim: snapshot restore failed: " + e.Err.Error() }

// Unwrap exposes the underlying cause.
func (e *RestoreError) Unwrap() error { return e.Err }

// systemState is the gob payload of a snapshot: every stateful component's
// exported state, plus the run loop's progress.
type systemState struct {
	Cycle     uint64
	MemCycles uint64
	Progress  RunProgress

	Cores  []cpu.CoreState
	Ctrls  []memctrl.ControllerState
	Prof   profile.State
	Alloc  paging.AllocatorState
	Tables []paging.PageTableState
	LLC    *cache.SharedState

	// Sched and Policy are the scheduler's and the partition policy's own
	// snapshot bytes (empty for stateless ones).
	Sched  []byte
	Policy []byte

	Rec *obs.RecorderState

	Agg            []profile.ThreadSample
	AggCount       int
	Life           []profile.ThreadSample
	LifeBLPWSum    []float64
	Timeline       []TimelinePoint
	LatHist        []*stats.Histogram
	BestIPC        []float64
	MigrationDrops uint64
	InvariantErr   string

	// ScnState is the scenario runtime's serialised state (applied timeline
	// events and per-thread generator switch logs); nil for stationary runs.
	ScnState []byte
}

// configFingerprint hashes the system's effective configuration the same way
// the run ledger does (sha256 over the canonical config JSON), so a snapshot
// can only be restored into an identically configured system.
func configFingerprint(cfg Config) ([32]byte, error) {
	raw, err := MarshalConfig(cfg)
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(bytes.TrimSpace(raw)), nil
}

// Snapshot serialises the system's complete state into a self-describing,
// hash-guarded blob. It is only legal at a scheduler-quantum boundary
// (immediately after quantum processing ran), which is where the run loop's
// poll points land; elsewhere intra-quantum profiler scratch would be lost.
func (s *System) Snapshot(progress RunProgress) ([]byte, error) {
	if s.cycle%s.schedQ != 0 {
		return nil, fmt.Errorf("sim: snapshot requested at cycle %d, which is not a scheduler-quantum boundary (quantum %d)", s.cycle, s.schedQ)
	}
	s.catchUp()
	st := systemState{
		Cycle:          s.cycle,
		MemCycles:      s.memCycles,
		Progress:       progress,
		Cores:          make([]cpu.CoreState, len(s.cores)),
		Ctrls:          make([]memctrl.ControllerState, len(s.ctrls)),
		Prof:           s.prof.Snapshot(),
		Alloc:          s.alloc.Snapshot(),
		Tables:         make([]paging.PageTableState, len(s.tables)),
		Agg:            append([]profile.ThreadSample(nil), s.agg...),
		AggCount:       s.aggCount,
		Life:           append([]profile.ThreadSample(nil), s.life...),
		LifeBLPWSum:    append([]float64(nil), s.lifeBLPWSum...),
		BestIPC:        append([]float64(nil), s.bestIPC...),
		MigrationDrops: s.migrationDrops,
	}
	if s.invErr != nil {
		st.InvariantErr = s.invErr.Error()
	}
	for i, c := range s.cores {
		st.Cores[i] = c.Snapshot()
	}
	for i, c := range s.ctrls {
		st.Ctrls[i] = c.Snapshot()
	}
	for i, t := range s.tables {
		st.Tables[i] = t.Snapshot()
	}
	if s.llc != nil {
		llc := s.llc.Snapshot()
		st.LLC = &llc
	}
	var err error
	if st.Sched, err = s.scheduler.Snapshot(); err != nil {
		return nil, fmt.Errorf("sim: snapshot scheduler state: %w", err)
	}
	if st.Policy, err = s.policy.Snapshot(); err != nil {
		return nil, fmt.Errorf("sim: snapshot partition-policy state: %w", err)
	}
	if s.timeline != nil {
		st.Timeline = append([]TimelinePoint(nil), s.timeline...)
	}
	if s.latHist != nil {
		st.LatHist = make([]*stats.Histogram, len(s.latHist))
		for i, h := range s.latHist {
			clone := *h
			clone.Bounds = append([]float64(nil), h.Bounds...)
			clone.Counts = append([]uint64(nil), h.Counts...)
			st.LatHist[i] = &clone
		}
	}
	if s.rec != nil {
		v := s.rec.Snapshot()
		st.Rec = &v
	}
	if s.scn != nil {
		b, err := s.scn.Snapshot()
		if err != nil {
			return nil, fmt.Errorf("sim: snapshot scenario state: %w", err)
		}
		st.ScnState = b
	}

	body, err := detmap.Marshal(&st)
	if err != nil {
		return nil, fmt.Errorf("sim: snapshot encode: %w", err)
	}
	cfgHash, err := configFingerprint(s.cfg)
	if err != nil {
		return nil, fmt.Errorf("sim: snapshot config fingerprint: %w", err)
	}
	bodyHash := sha256.Sum256(body)

	blob := make([]byte, 0, snapshotHeaderLen+len(body))
	blob = append(blob, snapshotMagic[:]...)
	blob = binary.BigEndian.AppendUint32(blob, SnapshotVersion)
	blob = append(blob, cfgHash[:]...)
	blob = append(blob, bodyHash[:]...)
	blob = binary.BigEndian.AppendUint64(blob, uint64(len(body)))
	blob = append(blob, body...)
	return blob, nil
}

// decodeSnapshot validates a blob's header and decodes its payload. Every
// failure is a *RestoreError. wantCfg guards against restoring into a
// differently configured system.
func decodeSnapshot(blob []byte, wantCfg [32]byte) (st *systemState, err error) {
	fail := func(e error) (*systemState, error) { return nil, &RestoreError{Err: e} }
	if len(blob) < snapshotHeaderLen {
		return fail(fmt.Errorf("blob is %d bytes, shorter than the %d-byte header", len(blob), snapshotHeaderLen))
	}
	if !bytes.Equal(blob[:8], snapshotMagic[:]) {
		return fail(fmt.Errorf("bad magic %q", blob[:8]))
	}
	version := binary.BigEndian.Uint32(blob[8:12])
	if version != SnapshotVersion {
		return fail(fmt.Errorf("snapshot version %d not supported (reader accepts only version %d)", version, SnapshotVersion))
	}
	var cfgHash [32]byte
	copy(cfgHash[:], blob[12:44])
	if cfgHash != wantCfg {
		return fail(fmt.Errorf("snapshot was taken under a different configuration"))
	}
	var bodyHash [32]byte
	copy(bodyHash[:], blob[44:76])
	bodyLen := binary.BigEndian.Uint64(blob[76:84])
	body := blob[snapshotHeaderLen:]
	if uint64(len(body)) != bodyLen {
		return fail(fmt.Errorf("payload is %d bytes, header promises %d", len(body), bodyLen))
	}
	if sha256.Sum256(body) != bodyHash {
		return fail(fmt.Errorf("payload hash mismatch (corrupt blob)"))
	}
	// The hash guard makes arbitrary bytes reaching the decoder vanishingly
	// unlikely, but gob decoding hostile input can still panic; contain it.
	defer func() {
		if r := recover(); r != nil {
			st, err = fail(fmt.Errorf("payload decode panicked: %v", r))
		}
	}()
	st = new(systemState)
	if derr := detmap.Unmarshal(body, st); derr != nil {
		return fail(fmt.Errorf("payload decode: %w", derr))
	}
	return st, nil
}

// RestoreSnapshot installs a snapshot blob into a freshly built System with
// the same configuration and benchmarks. Every failure is a *RestoreError;
// a System that returned one is in an undefined half-restored state and
// must be discarded (build a new one and rerun from cycle 0).
func (s *System) RestoreSnapshot(blob []byte) error {
	wantCfg, err := configFingerprint(s.cfg)
	if err != nil {
		return &RestoreError{Err: fmt.Errorf("config fingerprint: %w", err)}
	}
	st, err := decodeSnapshot(blob, wantCfg)
	if err != nil {
		return err
	}

	// Shape validation before any mutation, so common mismatches fail clean.
	fail := func(e error) error { return &RestoreError{Err: e} }
	if len(st.Cores) != len(s.cores) {
		return fail(fmt.Errorf("snapshot has %d cores, system has %d", len(st.Cores), len(s.cores)))
	}
	if len(st.Ctrls) != len(s.ctrls) {
		return fail(fmt.Errorf("snapshot has %d channels, system has %d", len(st.Ctrls), len(s.ctrls)))
	}
	if len(st.Tables) != len(s.tables) {
		return fail(fmt.Errorf("snapshot has %d page tables, system has %d", len(st.Tables), len(s.tables)))
	}
	if (st.LLC == nil) != (s.llc == nil) {
		return fail(fmt.Errorf("snapshot LLC presence does not match configuration"))
	}
	if s.rec != nil && st.Rec == nil {
		return fail(fmt.Errorf("snapshot was taken without a recorder attached; attach none or rerun"))
	}
	if (s.scn != nil) != (st.ScnState != nil) {
		return fail(fmt.Errorf("snapshot scenario presence does not match the system (snapshot %v, system %v)", st.ScnState != nil, s.scn != nil))
	}
	if len(st.Agg) != len(s.agg) || len(st.Life) != len(s.life) || len(st.LifeBLPWSum) != len(s.lifeBLPWSum) {
		return fail(fmt.Errorf("snapshot profile aggregates cover %d threads, system has %d", len(st.Agg), len(s.agg)))
	}
	if s.latHist != nil && len(st.LatHist) != len(s.latHist) {
		return fail(fmt.Errorf("snapshot latency histograms cover %d threads, system has %d", len(st.LatHist), len(s.latHist)))
	}

	// Controllers first: the profiler's restore walks their queues.
	for i, ctrl := range s.ctrls {
		if err := ctrl.Restore(st.Ctrls[i]); err != nil {
			return fail(err)
		}
	}
	// Scenario state installs before the cores: core restore fast-forwards
	// each fresh generator by its recorded Next() count, and the switch logs
	// set here replay every phase change at its original call index during
	// that fast-forward.
	if s.scn != nil {
		if err := s.scn.Restore(st.ScnState); err != nil {
			return fail(err)
		}
	}
	for i, c := range s.cores {
		if err := c.Restore(st.Cores[i]); err != nil {
			return fail(err)
		}
	}
	if err := s.alloc.Restore(st.Alloc); err != nil {
		return fail(err)
	}
	for i, t := range s.tables {
		if err := t.Restore(st.Tables[i]); err != nil {
			return fail(err)
		}
	}
	if s.llc != nil {
		if err := s.llc.Restore(*st.LLC); err != nil {
			return fail(err)
		}
	}
	if err := s.prof.Restore(st.Prof); err != nil {
		return fail(err)
	}
	if err := s.scheduler.Restore(st.Sched); err != nil {
		return fail(err)
	}
	if err := s.policy.Restore(st.Policy); err != nil {
		return fail(err)
	}
	if s.rec != nil {
		if err := s.rec.Restore(*st.Rec); err != nil {
			return fail(err)
		}
	}

	s.setCycle(st.Cycle)
	s.memCycles = st.MemCycles
	copy(s.agg, st.Agg)
	s.aggCount = st.AggCount
	copy(s.life, st.Life)
	copy(s.lifeBLPWSum, st.LifeBLPWSum)
	s.timeline = nil
	if st.Timeline != nil {
		s.timeline = append([]TimelinePoint(nil), st.Timeline...)
	}
	if s.latHist != nil {
		for i, h := range st.LatHist {
			*s.latHist[i] = *h
		}
	}
	if s.bestIPC != nil && len(st.BestIPC) == len(s.bestIPC) {
		copy(s.bestIPC, st.BestIPC)
	}
	s.migrationDrops = st.MigrationDrops
	s.wakeAll()
	s.crossPending = false
	s.invErr = nil
	if st.InvariantErr != "" {
		s.invErr = fmt.Errorf("%s", st.InvariantErr)
	}
	p := st.Progress
	s.pendingProgress = &p
	return nil
}
