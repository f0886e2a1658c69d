// Package explore is an exhaustive state-space model checker for small
// protocol instances: it enumerates EVERY reachable configuration of the
// system -- all interleavings of message deliveries, and optionally all
// fail-stop crash points -- and checks the paper's consistency property on
// each: "there is no reachable configuration where correct processes decide
// different values" (Section 2.1). Where the simulation engine samples
// schedules, the explorer proves the property for the given instance
// outright (subject to the state budget).
//
// Configurations are deduplicated by a canonical encoding of all machine
// snapshots plus the multiset of in-flight messages, which collapses the
// factorially many interleavings onto the usually-small set of distinct
// states.
package explore

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sort"
	"strconv"

	"resilient/internal/core"
	"resilient/internal/msg"
)

// Machine is the explorable protocol machine: a core.Machine that can be
// deep-copied, canonically serialized, and queried about no-op deliveries.
type Machine interface {
	core.Machine
	CloneMachine() Machine
	Snapshot() []byte
	// WouldIgnore reports whether delivering m is a guaranteed no-op.
	// The explorer prunes such deliveries eagerly instead of branching on
	// them: a no-op delivery commutes with every other transition, so
	// removing the message immediately reaches the same configurations.
	WouldIgnore(m msg.Message) bool
}

// Config describes the instance to explore.
type Config struct {
	// N is the number of processes.
	N int
	// Inputs are the initial values (length N).
	Inputs []msg.Value
	// Spawn builds the machine for one process.
	Spawn func(self msg.ID, input msg.Value) (Machine, error)
	// MaxCrashes additionally branches on killing up to this many
	// processes at every configuration (0 = no crash branching).
	MaxCrashes int
	// MaxStates bounds the exploration (0 = 1,000,000). When exceeded the
	// result reports Truncated instead of full coverage.
	MaxStates int
}

// Result summarizes an exploration.
type Result struct {
	// States is the number of distinct configurations visited.
	States int
	// Transitions is the number of delivery/crash edges taken.
	Transitions int
	// DecidedStates counts configurations in which at least one correct
	// process has decided.
	DecidedStates int
	// Violation describes the first consistency violation found ("" when
	// none). Exploration stops at the first violation.
	Violation string
	// Truncated reports whether the state budget cut exploration short:
	// if false and Violation is empty, the consistency property holds for
	// EVERY reachable configuration of this instance.
	Truncated bool
}

// flight is one undelivered message.
type flight struct {
	to  msg.ID
	m   msg.Message
	enc string // canonical encoding, for dedup and ordering
}

// state is one global configuration.
type state struct {
	machines []Machine
	inflight []flight
	crashed  []bool
	nCrashed int
}

// Explore runs the search from the initial configuration.
func Explore(cfg Config) (*Result, error) {
	if cfg.N < 1 || len(cfg.Inputs) != cfg.N {
		return nil, fmt.Errorf("explore: need %d inputs, got %d", cfg.N, len(cfg.Inputs))
	}
	if cfg.Spawn == nil {
		return nil, errors.New("explore: nil Spawn")
	}
	maxStates := cfg.MaxStates
	if maxStates <= 0 {
		maxStates = 1_000_000
	}

	init := &state{
		machines: make([]Machine, cfg.N),
		crashed:  make([]bool, cfg.N),
	}
	for i := 0; i < cfg.N; i++ {
		m, err := cfg.Spawn(msg.ID(i), cfg.Inputs[i])
		if err != nil {
			return nil, fmt.Errorf("explore: spawn p%d: %w", i, err)
		}
		init.machines[i] = m
	}
	for i, m := range init.machines {
		init.absorb(msg.ID(i), m.Start(), cfg.N)
	}
	init.normalize()

	res := &Result{}
	visited := map[[32]byte]bool{canonKey(init): true}
	queue := []*state{init}
	res.States = 1

	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]

		if v := checkConsistency(cur); v != "" {
			res.Violation = v
			return res, nil
		}
		if anyDecided(cur) {
			res.DecidedStates++
		}

		for _, next := range successors(cur, cfg) {
			res.Transitions++
			key := canonKey(next)
			if visited[key] {
				continue
			}
			if res.States >= maxStates {
				res.Truncated = true
				return res, nil
			}
			visited[key] = true
			res.States++
			queue = append(queue, next)
		}
	}
	return res, nil
}

// successors generates every distinct next configuration: one per distinct
// in-flight message delivery, plus (optionally) one per crashable process.
func successors(cur *state, cfg Config) []*state {
	var out []*state
	seen := make(map[string]bool)
	for i, f := range cur.inflight {
		key := "dlv|" + f.enc
		if seen[key] {
			continue // delivering identical messages to the same target commutes
		}
		seen[key] = true
		next := cur.clone()
		next.removeInflight(i)
		outs := next.machines[f.to].OnMessage(f.m)
		next.absorb(f.to, outs, cfg.N)
		next.normalize()
		out = append(out, next)
	}
	if cur.nCrashed < cfg.MaxCrashes {
		for p := 0; p < cfg.N; p++ {
			if cur.crashed[p] {
				continue
			}
			next := cur.clone()
			next.crashed[p] = true
			next.nCrashed++
			next.normalize()
			out = append(out, next)
		}
	}
	return out
}

// normalize eagerly discards in-flight messages whose delivery is a
// guaranteed no-op: messages to crashed or halted processes and messages the
// target would ignore (stale phases, foreign kinds, duplicates). Such
// deliveries commute with every other transition, so dropping them
// immediately is sound and collapses the state space dramatically.
func (s *state) normalize() {
	kept := s.inflight[:0]
	for _, f := range s.inflight {
		if s.crashed[f.to] || s.machines[f.to].Halted() || s.machines[f.to].WouldIgnore(f.m) {
			continue
		}
		kept = append(kept, f)
	}
	s.inflight = kept
}

// absorb enqueues the sends of one machine step, expanding broadcasts and
// multicasts.
// Sends from a crashed process are dropped (its crash happened before this
// step could have, so this only triggers for the crash-branch successor
// generation, which never steps crashed machines).
func (s *state) absorb(from msg.ID, outs []core.Outbound, n int) {
	core.Expand(outs, n, func(to msg.ID, m msg.Message) {
		m.From = from // authenticated
		s.addFlight(to, m)
	})
}

func (s *state) addFlight(to msg.ID, m msg.Message) {
	// One buffer, sized up front: destination, separator, message encoding.
	buf := make([]byte, 0, 12+msg.EncodedLen(m))
	buf = strconv.AppendInt(buf, int64(to), 10)
	buf = append(buf, '|')
	buf = msg.AppendEncode(buf, m)
	s.inflight = append(s.inflight, flight{to: to, m: m, enc: string(buf)})
}

func (s *state) removeInflight(i int) {
	s.inflight = append(s.inflight[:i:i], s.inflight[i+1:]...)
}

func (s *state) clone() *state {
	c := &state{
		machines: make([]Machine, len(s.machines)),
		inflight: append([]flight(nil), s.inflight...),
		crashed:  append([]bool(nil), s.crashed...),
		nCrashed: s.nCrashed,
	}
	for i, m := range s.machines {
		c.machines[i] = m.CloneMachine()
	}
	return c
}

// canonKey hashes the canonical encoding into a fixed-size key, keeping the
// visited set compact (the 2^-128-ish collision odds are negligible next to
// the state budgets involved).
func canonKey(s *state) [32]byte {
	return sha256.Sum256([]byte(canonical(s)))
}

// canonical returns the dedup encoding: machine snapshots in id order plus
// the sorted in-flight multiset plus the crash set.
func canonical(s *state) string {
	var b []byte
	for i, m := range s.machines {
		b = append(b, byte(i))
		if s.crashed[i] {
			b = append(b, 'X')
		}
		b = append(b, m.Snapshot()...)
		b = append(b, 0, 0)
	}
	encs := make([]string, len(s.inflight))
	for i, f := range s.inflight {
		encs[i] = f.enc
	}
	sort.Strings(encs)
	for _, e := range encs {
		b = append(b, e...)
		b = append(b, 1)
	}
	return string(b)
}

// checkConsistency returns a description of a decision conflict among
// non-crashed... among ALL processes (a crashed process's earlier decision
// still counts: the paper's d_p is permanent).
func checkConsistency(s *state) string {
	var val msg.Value
	var holder int
	first := true
	for i, m := range s.machines {
		v, ok := m.Decided()
		if !ok {
			continue
		}
		if first {
			val, holder, first = v, i, false
			continue
		}
		if v != val {
			return fmt.Sprintf("p%d decided %d while p%d decided %d", i, v, holder, val)
		}
	}
	return ""
}

func anyDecided(s *state) bool {
	for _, m := range s.machines {
		if _, ok := m.Decided(); ok {
			return true
		}
	}
	return false
}
