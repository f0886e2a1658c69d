package resilient

import (
	"resilient/internal/check"
	"resilient/internal/proto"
	"resilient/internal/spawn"
)

// Violation is one broken protocol invariant found by Verify.
type Violation = check.Violation

// Verify checks a traced execution against the invariants the paper proves:
// agreement, validity, write-once decisions, phase monotonicity, decision
// support (witness/accept thresholds), and silence after crashes. Pass the
// TraceBuffer given to Simulate via SimOptions.Trace, the returned Result,
// and the same configuration. It returns all violations found (nil when the
// execution is clean).
//
//	buf := resilient.NewTraceBuffer(0)
//	res, _ := resilient.Simulate(p, n, k, inputs, resilient.SimOptions{Trace: buf})
//	if vs := resilient.Verify(p, n, k, inputs, nil, buf, res); len(vs) > 0 { ... }
func Verify(p Protocol, n, k int, inputs []Value, adversaries map[ID]Strategy,
	buf *TraceBuffer, res *Result) []Violation {
	cfg := check.Config{N: n, K: k, Inputs: inputs, Byzantine: spawn.Members(adversaries)}
	if d, ok := proto.Lookup(p); ok {
		// The descriptor names the checker's protocol-specific support
		// rules (empty = generic checks only) and marks protocols that
		// decide an agreed function of the inputs rather than a
		// majority-respecting value.
		cfg.Protocol = d.CheckName
		cfg.SkipValidity = d.SkipValidity
	}
	return check.Run(cfg, buf.Events(), res)
}
