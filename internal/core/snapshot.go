package core

import (
	"fmt"

	"dbpsim/internal/detmap"
)

// dbpState is the dynamic bank partitioner's mutable state (cfg, geometry
// and the channel-spread color order are configuration, rebuilt by New).
type dbpState struct {
	Owned   [][]int
	Heavy   []bool
	Quantum int
	History []Allocation
}

// Snapshot implements bankpart.Policy.
func (d *DBP) Snapshot() ([]byte, error) {
	return detmap.Marshal(dbpState{d.owned, d.heavy, d.quantum, d.history})
}

// Restore implements bankpart.Policy.
func (d *DBP) Restore(b []byte) error {
	var st dbpState
	if err := detmap.Unmarshal(b, &st); err != nil {
		return fmt.Errorf("core: DBP snapshot: %w", err)
	}
	if len(st.Owned) != len(d.owned) {
		return fmt.Errorf("core: DBP snapshot has %d ownership units, partitioner has %d", len(st.Owned), len(d.owned))
	}
	if len(st.Heavy) != len(d.heavy) {
		return fmt.Errorf("core: DBP snapshot has %d threads, partitioner has %d", len(st.Heavy), len(d.heavy))
	}
	d.owned = st.Owned
	copy(d.heavy, st.Heavy)
	d.quantum = st.Quantum
	d.history = st.History
	return nil
}
