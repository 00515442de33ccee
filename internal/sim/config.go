// Package sim is the simulation kernel: it assembles cores, caches, page
// tables, memory controllers and a partitioning policy into a system,
// drives the CPU/memory clocks, applies quantum decisions (scheduler
// ranking, bank repartitioning, page migration), and measures per-thread
// IPC for the paper's weighted-speedup / maximum-slowdown metrics.
package sim

import (
	"fmt"

	"dbpsim/internal/addr"
	"dbpsim/internal/cache"
	"dbpsim/internal/core"
	"dbpsim/internal/cpu"
	"dbpsim/internal/dram"
	"dbpsim/internal/mcp"
	"dbpsim/internal/memctrl"
)

// SchedulerKind selects the memory request scheduler.
type SchedulerKind string

// Scheduler kinds.
const (
	SchedFCFS   SchedulerKind = "fcfs"
	SchedFRFCFS SchedulerKind = "frfcfs"
	SchedTCM    SchedulerKind = "tcm"
	SchedATLAS  SchedulerKind = "atlas"
	SchedPARBS  SchedulerKind = "parbs"
	// SchedFRFCFSCap is FR-FCFS with a row-hit streak cap.
	SchedFRFCFSCap SchedulerKind = "frfcfs-cap"
	// SchedBLISS is the blacklisting scheduler.
	SchedBLISS SchedulerKind = "bliss"
)

// PartitionKind selects the bank-partitioning policy.
type PartitionKind string

// L3PolicyKind selects how the optional shared LLC is managed.
type L3PolicyKind string

// LLC policies.
const (
	// L3Shared is an unmanaged shared LLC (free-for-all allocation).
	L3Shared L3PolicyKind = "shared"
	// L3Equal statically partitions the ways evenly.
	L3Equal L3PolicyKind = "equal"
	// L3UCP repartitions ways each quantum by UMON marginal utility.
	L3UCP L3PolicyKind = "ucp"
)

// Partition kinds.
const (
	PartNone  PartitionKind = "none"
	PartEqual PartitionKind = "equal"
	PartDBP   PartitionKind = "dbp"
	PartMCP   PartitionKind = "mcp"
	// PartFixed installs Config.FixedMasks verbatim (experiments that pin
	// threads to explicit bank sets).
	PartFixed PartitionKind = "fixed"
)

// Config describes a complete simulated system.
type Config struct {
	// Cores is the number of hardware threads (one benchmark each).
	Cores int
	// CPU configures the core model.
	CPU cpu.Config
	// L1 and L2 configure the private cache hierarchy.
	L1 cache.Config
	L2 cache.Config
	// Geometry is the DRAM organisation.
	Geometry addr.Geometry
	// Mapping is the physical-address layout. Non-default schemes that
	// break page coloring (line interleave) require Partition == PartNone.
	Mapping addr.Scheme
	// Timing is the DRAM timing set.
	Timing dram.Timing
	// L3 configures an optional shared last-level cache between the private
	// L2s and memory (SizeBytes 0 disables it; disabled by default so the
	// paper's private-cache configuration is the baseline).
	L3 cache.Config
	// L3Latency is the shared-cache hit latency in CPU cycles.
	L3Latency int
	// L3Policy selects the LLC way-partitioning policy.
	L3Policy L3PolicyKind
	// L3UMONSampleEvery is the UMON set-sampling stride for L3PolicyUCP.
	L3UMONSampleEvery int
	// Ctrl configures each channel's memory controller.
	Ctrl memctrl.Config
	// Power sets the DRAM energy constants used for energy reporting.
	Power dram.PowerParams
	// CPUClockRatio is CPU cycles per memory cycle.
	CPUClockRatio int

	// Scheduler picks the request scheduler.
	Scheduler SchedulerKind
	// TCMClusterThresh, TCMShuffleInterval, TCMShuffleRotate and
	// TCMRankOverRowHit parameterise TCM (see TCMConfig in package sched).
	TCMClusterThresh   float64
	TCMShuffleInterval uint64
	TCMShuffleRotate   bool
	TCMRankOverRowHit  bool
	// ATLASAlpha is ATLAS's history decay.
	ATLASAlpha float64
	// PARBSMarkingCap is PAR-BS's per-(thread,bank) batch marking cap.
	PARBSMarkingCap int
	// FRFCFSRowHitCap is the streak cap for SchedFRFCFSCap.
	FRFCFSRowHitCap int
	// BLISSStreak and BLISSClearInterval parameterise SchedBLISS.
	BLISSStreak        int
	BLISSClearInterval uint64
	// SchedQuantumCPUCycles is the ranking quantum for TCM/ATLAS and the
	// base profiling quantum. Partition quanta must be multiples of it.
	SchedQuantumCPUCycles uint64

	// Partition picks the bank-partitioning policy.
	Partition PartitionKind
	// DBP configures Dynamic Bank Partitioning (QuantumCPUCycles is
	// rounded up to a multiple of SchedQuantumCPUCycles).
	DBP core.Config
	// MCP configures Memory Channel Partitioning.
	MCP mcp.Config
	// FixedMasks lists, for PartFixed, each thread's bank colors.
	FixedMasks [][]int
	// MigratePagesPerQuantum bounds lazy page migration after a
	// repartition (0 disables migration).
	MigratePagesPerQuantum int
	// MigrationCostLines is the number of posted line transfers injected
	// per migrated page to model migration traffic (see DESIGN.md).
	MigrationCostLines int

	// RecordTimeline collects per-quantum per-thread time series (IPC,
	// BLP, bank allocation) into Result.Timeline.
	RecordTimeline bool
	// RecordLatencyHistograms collects per-thread read-latency
	// distributions into Result.ReadLatency.
	RecordLatencyHistograms bool
	// Paranoid cross-checks system invariants (frame ownership, mask
	// sanity, service conservation) at every profiling quantum; Run fails
	// on the first violation. Costs a few percent of simulation speed.
	Paranoid bool

	// Seed drives all randomised components.
	Seed int64

	// ScenarioHash is the content hash of the phase-shifting scenario
	// driving the run (empty for stationary mix runs). It is part of the
	// canonical config JSON — and therefore of the ledger config hash, the
	// checkpoint fingerprint, and the service cache key — so two runs that
	// differ only in their timeline never collide. The omitempty tag keeps
	// stationary configs byte-identical to their pre-scenario encoding.
	ScenarioHash string `json:",omitempty"`
}

// DefaultConfig returns the paper-style baseline system for the given core
// count: private 32 KiB L1 + 512 KiB L2, 2 channels × 8 banks DDR3-1600,
// FR-FCFS, no partitioning.
func DefaultConfig(cores int) Config {
	dbpCfg := core.DefaultConfig()
	dbpCfg.QuantumCPUCycles = 500_000 // scaled to our run lengths (DESIGN.md)
	mcpCfg := mcp.DefaultConfig()
	mcpCfg.QuantumCPUCycles = 1_000_000
	return Config{
		Cores:             cores,
		CPU:               cpu.DefaultConfig(),
		L1:                cache.Config{Name: "L1D", SizeBytes: 32 << 10, Ways: 8, LineBytes: 64},
		L2:                cache.Config{Name: "L2", SizeBytes: 512 << 10, Ways: 16, LineBytes: 64},
		Geometry:          addr.DefaultGeometry(),
		Timing:            dram.DDR3_1600(),
		L3:                cache.Config{Name: "L3", SizeBytes: 0, Ways: 16, LineBytes: 64},
		L3Latency:         30,
		L3Policy:          L3Shared,
		L3UMONSampleEvery: 32,
		Ctrl:              memctrl.DefaultConfig(),
		Power:             dram.DDR3Power(),
		CPUClockRatio:     4,

		Scheduler: SchedFRFCFS,
		// ClusterThresh 0 disables the latency cluster: on this substrate
		// light threads are CPU-bound, so strict prioritisation buys them
		// nothing while their scattered requests break heavy threads' row
		// streaks (swept in the ablation experiment; see DESIGN.md).
		TCMClusterThresh:      0.0,
		TCMShuffleInterval:    800,
		ATLASAlpha:            0.875,
		PARBSMarkingCap:       5,
		FRFCFSRowHitCap:       4,
		BLISSStreak:           4,
		BLISSClearInterval:    10_000,
		SchedQuantumCPUCycles: 250_000,

		Partition:              PartNone,
		DBP:                    dbpCfg,
		MCP:                    mcpCfg,
		MigratePagesPerQuantum: 4096,
		MigrationCostLines:     8,

		Seed: 1,
	}
}

// Validate reports configuration errors across all subsystems.
func (c Config) Validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("sim: Cores must be positive, got %d", c.Cores)
	}
	if err := c.CPU.Validate(); err != nil {
		return err
	}
	if err := c.L1.Validate(); err != nil {
		return err
	}
	if err := c.L2.Validate(); err != nil {
		return err
	}
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	if err := c.Timing.Validate(); err != nil {
		return err
	}
	if err := c.Ctrl.Validate(); err != nil {
		return err
	}
	if err := c.Power.Validate(); err != nil {
		return err
	}
	if c.L3.SizeBytes > 0 {
		if err := c.L3.Validate(); err != nil {
			return err
		}
		if c.L3Latency <= c.CPU.L2Latency {
			return fmt.Errorf("sim: L3Latency %d must exceed L2Latency %d", c.L3Latency, c.CPU.L2Latency)
		}
		switch c.L3Policy {
		case L3Shared, L3Equal, L3UCP:
		default:
			return fmt.Errorf("sim: unknown L3 policy %q", c.L3Policy)
		}
		if c.L3Policy == L3UCP && c.L3UMONSampleEvery <= 0 {
			return fmt.Errorf("sim: L3UMONSampleEvery must be positive for UCP")
		}
		if c.L3.Ways < c.Cores {
			return fmt.Errorf("sim: L3 needs at least one way per core (%d ways, %d cores)", c.L3.Ways, c.Cores)
		}
	}
	if c.CPUClockRatio <= 0 {
		return fmt.Errorf("sim: CPUClockRatio must be positive, got %d", c.CPUClockRatio)
	}
	if c.SchedQuantumCPUCycles == 0 {
		return fmt.Errorf("sim: SchedQuantumCPUCycles must be positive")
	}
	switch c.Scheduler {
	case SchedFCFS, SchedFRFCFS, SchedTCM, SchedATLAS:
	case SchedPARBS:
		if c.PARBSMarkingCap <= 0 {
			return fmt.Errorf("sim: PARBSMarkingCap must be positive, got %d", c.PARBSMarkingCap)
		}
	case SchedFRFCFSCap:
		if c.FRFCFSRowHitCap <= 0 {
			return fmt.Errorf("sim: FRFCFSRowHitCap must be positive, got %d", c.FRFCFSRowHitCap)
		}
	case SchedBLISS:
		if c.BLISSStreak <= 0 || c.BLISSClearInterval == 0 {
			return fmt.Errorf("sim: bad BLISS parameters (streak %d, interval %d)", c.BLISSStreak, c.BLISSClearInterval)
		}
	default:
		return fmt.Errorf("sim: unknown scheduler %q", c.Scheduler)
	}
	switch c.Partition {
	case PartNone, PartEqual, PartDBP, PartMCP:
	case PartFixed:
		if len(c.FixedMasks) != c.Cores {
			return fmt.Errorf("sim: PartFixed needs %d mask lists, got %d", c.Cores, len(c.FixedMasks))
		}
	default:
		return fmt.Errorf("sim: unknown partition policy %q", c.Partition)
	}
	if c.Partition == PartDBP {
		if err := c.DBP.Validate(); err != nil {
			return err
		}
	}
	if c.Partition == PartMCP {
		if err := c.MCP.Validate(); err != nil {
			return err
		}
	}
	if c.MigratePagesPerQuantum < 0 || c.MigrationCostLines < 0 {
		return fmt.Errorf("sim: migration parameters must be non-negative")
	}
	if !c.Mapping.SupportsColoring() && c.Partition != PartNone {
		return fmt.Errorf("sim: mapping %s breaks page coloring; partitioning %q needs a coloring-capable scheme", c.Mapping, c.Partition)
	}
	return nil
}

// partitionQuantum returns the policy's quantum rounded up to a multiple of
// the base scheduling quantum.
func (c Config) partitionQuantum() uint64 {
	var q uint64
	switch c.Partition {
	case PartDBP:
		q = c.DBP.QuantumCPUCycles
	case PartMCP:
		q = c.MCP.QuantumCPUCycles
	default:
		return 0
	}
	base := c.SchedQuantumCPUCycles
	if q < base {
		return base
	}
	if rem := q % base; rem != 0 {
		q += base - rem
	}
	return q
}

// schedName renders the effective scheduler label, including MCP's boost.
func (c Config) schedName() string {
	n := string(c.Scheduler)
	if c.Partition == PartMCP {
		n += "+prio"
	}
	return n
}
