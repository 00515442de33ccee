package tenant

import "math"

// Estimate is a run's admission cost, known before it executes. SimCycles
// is what quota buckets are debited and what the weighted-fair queue
// charges the run's flow.
type Estimate struct {
	SimCycles uint64 `json:"simcycles"`
}

// cyclesPerInstruction converts instruction budgets to simulated CPU
// cycles. Measured budgets on the committed mixes retire in 1.5–2.5 cycles
// per instruction under contention; 2 is the round middle.
const cyclesPerInstruction = 2

// EstimateRun prices a run by its total instruction budget (warmup +
// measure, per core) alone: the request fixes the cost, so a run is priced
// the same on every node and under every policy. A budget whose price
// would overflow saturates, so no request wraps around to a cheap one.
func EstimateRun(instructions uint64) Estimate {
	if instructions > math.MaxUint64/cyclesPerInstruction {
		return Estimate{SimCycles: math.MaxUint64}
	}
	return Estimate{SimCycles: instructions * cyclesPerInstruction}
}
