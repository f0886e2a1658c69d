// Package check is an execution-invariant checker: it consumes a trace and
// a result from the discrete-event engine and verifies the properties the
// paper proves, independently of the protocol implementations themselves.
//
// Checked invariants:
//
//   - agreement: no two correct processes decide different values
//     (consistency, Theorems 2 and 4);
//   - write-once decisions: no process decides twice (the model's d_p);
//   - validity: unanimous correct inputs force that decision;
//   - phase monotonicity: no process's phase ever decreases;
//   - decision support: every Figure-1 decision is preceded by more than k
//     witness events for the decided value at that process, and every
//     Figure-2 decision by more than (n+k)/2 accept events for it;
//   - silence after crash: a fail-stop death is final -- no sends follow
//     a process's crash event. (Sends may legitimately follow a *halt*
//     event within the same atomic step: Figure 1's deciders emit their
//     two final witness rounds as they halt.)
//
// The checker operates purely on trace events, so it also validates the
// engine's bookkeeping, not just the machines'.
package check

import (
	"fmt"
	"slices"

	"resilient/internal/msg"
	"resilient/internal/quorum"
	"resilient/internal/runtime"
	"resilient/internal/trace"
)

// Violation is one broken invariant.
type Violation struct {
	// Invariant names the broken property.
	Invariant string
	// Process is the offending process (or -1 for global properties).
	Process msg.ID
	// Detail explains the violation.
	Detail string
}

// String renders the violation.
func (v Violation) String() string {
	if v.Process < 0 {
		return fmt.Sprintf("%s: %s", v.Invariant, v.Detail)
	}
	return fmt.Sprintf("%s (p%d): %s", v.Invariant, v.Process, v.Detail)
}

// Config describes the checked execution.
type Config struct {
	// N and K are the system parameters.
	N, K int
	// Inputs are the initial values.
	Inputs []msg.Value
	// Byzantine marks processes exempt from correctness invariants.
	Byzantine map[msg.ID]bool
	// Protocol selects protocol-specific support checks: "failstop" checks
	// witness support, "malicious" checks accept support, "" skips them.
	Protocol string
	// SkipValidity disables the unanimous-input validity check, for
	// protocols that decide an agreed bivalent function of the inputs
	// rather than a majority-respecting value (the Section 5 protocol).
	SkipValidity bool
}

// Run checks the invariants over the given trace and result and returns all
// violations found (nil when clean).
func Run(cfg Config, events []trace.Event, res *runtime.Result) []Violation {
	c := &checker{
		cfg:       cfg,
		phases:    make(map[msg.ID]msg.Phase),
		decided:   make(map[msg.ID]msg.Value),
		halted:    make(map[msg.ID]bool),
		crashed:   make(map[msg.ID]bool),
		witnesses: make(map[supportKey]int),
		accepts:   make(map[supportKey]int),
	}
	for _, e := range events {
		c.observe(e)
	}
	c.global(res)
	return c.violations
}

type supportKey struct {
	p     msg.ID
	phase msg.Phase
	value msg.Value
}

type checker struct {
	cfg        Config
	violations []Violation

	phases    map[msg.ID]msg.Phase
	decided   map[msg.ID]msg.Value
	halted    map[msg.ID]bool
	crashed   map[msg.ID]bool
	witnesses map[supportKey]int
	accepts   map[supportKey]int
}

func (c *checker) fail(invariant string, p msg.ID, format string, args ...any) {
	c.violations = append(c.violations, Violation{
		Invariant: invariant,
		Process:   p,
		Detail:    fmt.Sprintf(format, args...),
	})
}

func (c *checker) isByz(p msg.ID) bool { return c.cfg.Byzantine[p] }

func (c *checker) observe(e trace.Event) {
	switch e.Kind {
	case trace.EventPhase:
		if c.isByz(e.Process) {
			return
		}
		if prev, ok := c.phases[e.Process]; ok && e.Phase < prev {
			c.fail("phase-monotonicity", e.Process, "phase %d after %d", e.Phase, prev)
		}
		c.phases[e.Process] = e.Phase
	case trace.EventWitness:
		c.witnesses[supportKey{p: e.Process, phase: e.Phase, value: e.Value}]++
	case trace.EventAccept:
		c.accepts[supportKey{p: e.Process, phase: e.Phase, value: e.Value}]++
	case trace.EventDecide:
		if c.isByz(e.Process) {
			return
		}
		if prev, ok := c.decided[e.Process]; ok {
			c.fail("write-once-decision", e.Process, "decided %d after %d", e.Value, prev)
			return
		}
		c.decided[e.Process] = e.Value
		c.checkSupport(e)
	case trace.EventCrash:
		c.crashed[e.Process] = true
	case trace.EventHalt:
		c.halted[e.Process] = true
	case trace.EventSend:
		if c.isByz(e.Process) {
			return
		}
		if c.crashed[e.Process] {
			c.fail("silence-after-crash", e.Process, "send at t=%v after crash", e.Time)
		}
	}
}

// checkSupport verifies the protocol-specific decision precondition.
func (c *checker) checkSupport(e trace.Event) {
	switch c.cfg.Protocol {
	case "failstop":
		// Figure 1 decides at phase t on the witnesses counted in phase
		// t-1 (the phase counter is incremented before the check).
		w := c.witnesses[supportKey{p: e.Process, phase: e.Phase - 1, value: e.Value}] +
			c.witnesses[supportKey{p: e.Process, phase: e.Phase, value: e.Value}]
		if !quorum.WitnessDecide(w, c.cfg.K) {
			c.fail("decision-support", e.Process,
				"decided %d in phase %d with only %d witnesses (need > %d)",
				e.Value, e.Phase, w, c.cfg.K)
		}
	case "malicious":
		a := c.accepts[supportKey{p: e.Process, phase: e.Phase, value: e.Value}]
		if !quorum.ExceedsHalfNPlusK(a, c.cfg.N, c.cfg.K) {
			c.fail("decision-support", e.Process,
				"decided %d in phase %d with only %d accepts (need > (n+k)/2 = %d)",
				e.Value, e.Phase, a, quorum.EchoAcceptCount(c.cfg.N, c.cfg.K)-1)
		}
	}
}

// sortedIDs returns the processes decisions records, in id order.
func sortedIDs(decisions map[msg.ID]msg.Value) []msg.ID {
	ids := make([]msg.ID, 0, len(decisions))
	for p := range decisions {
		ids = append(ids, p)
	}
	slices.Sort(ids)
	return ids
}

// global applies the end-state invariants.
func (c *checker) global(res *runtime.Result) {
	// Agreement across the trace's decide events. Deciders are walked in id
	// order, so a violation names the same processes on every run.
	deciders := sortedIDs(c.decided)
	for _, p := range deciders {
		if v, first := c.decided[p], c.decided[deciders[0]]; v != first {
			c.fail("agreement", p, "decided %d while another process decided %d", v, first)
			break
		}
	}
	// Trace decisions and result decisions must coincide.
	if res != nil {
		for _, p := range sortedIDs(res.Decisions) {
			v := res.Decisions[p]
			if tv, ok := c.decided[p]; !ok {
				c.fail("trace-consistency", p, "result records decision %d missing from trace", v)
			} else if tv != v {
				c.fail("trace-consistency", p, "trace decided %d, result %d", tv, v)
			}
		}
	}
	// Validity: unanimous correct inputs force the decision.
	if !c.cfg.SkipValidity && len(c.cfg.Inputs) == c.cfg.N {
		unanimous := true
		var val msg.Value
		first := true
		for i, in := range c.cfg.Inputs {
			if c.isByz(msg.ID(i)) {
				continue
			}
			if first {
				val, first = in, false
				continue
			}
			if in != val {
				unanimous = false
				break
			}
		}
		if unanimous && !first {
			for _, p := range deciders {
				if v := c.decided[p]; v != val {
					c.fail("validity", p, "unanimous input %d but decided %d", val, v)
				}
			}
		}
	}
}
