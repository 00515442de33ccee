package mcp

import (
	"fmt"

	"dbpsim/internal/detmap"
)

// state is the MCP policy's mutable state (everything else — config,
// geometry, channel masks — is rebuilt by New).
type state struct {
	LastGroups []int
}

// Snapshot implements bankpart.Policy.
func (m *MCP) Snapshot() ([]byte, error) {
	return detmap.Marshal(state{m.lastGroups})
}

// Restore implements bankpart.Policy.
func (m *MCP) Restore(b []byte) error {
	var st state
	if err := detmap.Unmarshal(b, &st); err != nil {
		return fmt.Errorf("mcp: snapshot: %w", err)
	}
	if len(st.LastGroups) != len(m.lastGroups) {
		return fmt.Errorf("mcp: snapshot has %d threads, policy has %d", len(st.LastGroups), len(m.lastGroups))
	}
	copy(m.lastGroups, st.LastGroups)
	return nil
}
