// Package proto is the protocol registry: the single place that knows which
// consensus protocols exist, what they are called, what fault model and
// resilience bound they carry, what dependencies their machines need, and
// how to build one.
//
// Every protocol package registers a Descriptor for itself at init time
// (see its register.go), so adding a protocol to the zoo is a one-package
// change: nothing else in the tree switches on protocol identity. The
// public resilient.Protocol methods, the simulator and live-engine spawn
// paths, the replicated log, the Monte-Carlo ensembles, and the CLIs all
// resolve protocols through this registry.
//
// The registry is populated during package initialization only and is
// read-only afterwards, so lookups are safe from any goroutine without
// locking, and All iterates a slice sorted by ID -- never a map -- so every
// consumer sees the same deterministic order.
package proto

import (
	"fmt"
	"sort"
	"strings"

	"resilient/internal/coin"
	"resilient/internal/core"
	"resilient/internal/quorum"
	"resilient/internal/trace"
)

// ID selects a registered consensus protocol. The resilient package
// aliases this type as resilient.Protocol.
type ID int

// The registered protocols. The constants are fixed (they are part of the
// public API surface via the resilient package aliases); the registry
// carries everything else about them.
const (
	// FailStop is the Figure 1 protocol: witness messages,
	// k <= floor((n-1)/2) fail-stop faults.
	FailStop ID = iota + 1
	// Malicious is the Figure 2 protocol: authenticated echo broadcast,
	// k <= floor((n-1)/3) malicious faults.
	Malicious
	// Majority is the Section 4.1 analysis variant: plain value exchange,
	// majority adoption, supermajority decision (fail-stop).
	Majority
	// BenOrCrash is the [BenO83] baseline for fail-stop faults: local
	// coins, exponential expected phases in the worst case.
	BenOrCrash
	// BenOrByzantine is the [BenO83] baseline for malicious faults
	// (requires 5k < n).
	BenOrByzantine
	// Bivalence is the Section 5 weak-bivalence protocol for
	// initially-dead faults (tolerates any k < n).
	Bivalence
	// Broadcast is a single reliable broadcast: process 0 disseminates its
	// input and every correct process delivers it, over either the
	// full-quorum echo or the sampled primitive.
	Broadcast
	// BenOrShared is Ben-Or's structure driven by a deterministic common
	// coin (Aspnes cs/0209014): in every coin round all correct processes
	// flip the same value, so the expected phase count is constant instead
	// of growing with n.
	BenOrShared
)

// Deps bundles everything a protocol machine may need beyond its core
// config. Fields are zero when the run does not provide them.
type Deps struct {
	// Coin is the machine's randomness source; non-nil exactly when the
	// run's resolved coin scheme is local or shared. Protocols registered
	// with SchemeNone always receive nil.
	Coin coin.Source
	// Directory is the run's shared sample directory for protocols with an
	// echo-broadcast stage (a *sample.Directory; typed opaquely so the
	// registry does not import the sample package, which registers itself
	// here). Nil selects the full-quorum primitive.
	Directory any
	// Sink receives trace events; nil disables tracing.
	Sink trace.Sink
	// Unsafe selects the protocol's bound-unchecked variant, for
	// deliberately misconfigured lower-bound experiments. Protocols
	// without one ignore it.
	Unsafe bool
	// Reuse, when non-nil, is a machine this protocol built for an earlier
	// run of the same shape (n and k) that no engine steps any more and
	// whose step outputs nobody holds. Spawn may reset it for cfg and return
	// it instead of allocating a new machine, or ignore it; the machine it
	// returns must behave exactly as a new one would.
	Reuse core.Machine
}

// Descriptor describes one registered protocol.
type Descriptor struct {
	// ID is the protocol's registry key.
	ID ID
	// Name is the canonical display name (e.g. "failstop(fig1)").
	Name string
	// Aliases are the accepted parse spellings, lower-case.
	Aliases []string
	// Model is the fault model the protocol is designed for.
	Model quorum.FaultModel
	// Bound renders the resilience bound for humans (e.g. "(n-1)/2").
	Bound string
	// MaxFaults returns the largest tolerable k at system size n; nil
	// means the model's tight bound quorum.MaxFaults(n, Model).
	MaxFaults func(n int) int
	// Coin is the protocol's default coin scheme; SchemeNone marks the
	// deterministic protocols, which reject coin overrides.
	Coin coin.Scheme
	// NeedsDirectory marks protocols whose echo stage can run over the
	// sampled broadcast primitive (they accept Deps.Directory).
	NeedsDirectory bool
	// CheckName is the invariant checker's protocol name for
	// decision-support checks ("" = the generic checks only).
	CheckName string
	// SkipValidity marks protocols that decide an agreed function of the
	// inputs rather than a majority-respecting input value, exempting them
	// from the checker's validity invariant.
	SkipValidity bool
	// Spawn builds one honest machine for the protocol.
	Spawn func(cfg core.Config, deps Deps) (core.Machine, error)
}

// registry state: populated by Register during package init, read-only
// afterwards. descs stays sorted by ID so All and Names are deterministic.
var (
	descs  []Descriptor
	byName = map[string]ID{}
)

// Register adds a protocol descriptor. It must be called from a protocol
// package's init function and panics on malformed or duplicate
// registrations -- the registry's contents are programmer-controlled, not
// input-driven.
func Register(d Descriptor) {
	if d.ID <= 0 || d.Name == "" || d.Spawn == nil || !d.Model.Valid() {
		panic(fmt.Sprintf("proto: malformed descriptor for %q (id %d)", d.Name, int(d.ID)))
	}
	if !d.Coin.Valid() || d.Coin == coin.SchemeAuto {
		panic(fmt.Sprintf("proto: %q must register a concrete coin scheme, got %v", d.Name, d.Coin))
	}
	if _, dup := Lookup(d.ID); dup {
		panic(fmt.Sprintf("proto: duplicate registration for id %d (%q)", int(d.ID), d.Name))
	}
	names := append([]string{strings.ToLower(d.Name)}, d.Aliases...)
	for _, name := range names {
		if owner, dup := byName[name]; dup {
			if owner == d.ID {
				continue // an alias repeating the descriptor's own name
			}
			panic(fmt.Sprintf("proto: duplicate protocol name %q", name))
		}
		byName[name] = d.ID
	}
	descs = append(descs, d)
	sort.Slice(descs, func(i, j int) bool { return descs[i].ID < descs[j].ID })
}

// Lookup returns the descriptor registered for id.
func Lookup(id ID) (Descriptor, bool) {
	for _, d := range descs {
		if d.ID == id {
			return d, true
		}
	}
	return Descriptor{}, false
}

// All returns every registered descriptor in ID order.
func All() []Descriptor {
	return append([]Descriptor(nil), descs...)
}

// Parse resolves a protocol name or alias, case-insensitively.
func Parse(name string) (ID, error) {
	id, ok := byName[strings.ToLower(strings.TrimSpace(name))]
	if !ok {
		return 0, fmt.Errorf("proto: unknown protocol %q (want one of %s)", name, strings.Join(Names(), " | "))
	}
	return id, nil
}

// Names returns each registered protocol's primary alias (its first), in
// ID order -- the list CLI usage strings print.
func Names() []string {
	names := make([]string, 0, len(descs))
	for _, d := range descs {
		if len(d.Aliases) > 0 {
			names = append(names, d.Aliases[0])
		} else {
			names = append(names, d.Name)
		}
	}
	return names
}

// ResolveCoin resolves the coin scheme one run of the protocol should use:
// the descriptor's default under SchemeAuto, the override otherwise. It
// rejects overrides that contradict the protocol -- a coin for a
// deterministic protocol, or no coin for a randomized one.
func (d Descriptor) ResolveCoin(override coin.Scheme) (coin.Scheme, error) {
	if !override.Valid() {
		return 0, fmt.Errorf("proto: unknown coin scheme %d", int(override))
	}
	if override == coin.SchemeAuto {
		return d.Coin, nil
	}
	if d.Coin == coin.SchemeNone && override != coin.SchemeNone {
		return 0, fmt.Errorf("proto: %s is deterministic and takes no coin (got %v)", d.Name, override)
	}
	if d.Coin != coin.SchemeNone && override == coin.SchemeNone {
		return 0, fmt.Errorf("proto: %s needs a coin; scheme none is not runnable", d.Name)
	}
	return override, nil
}

// String names the protocol.
func (p ID) String() string {
	if d, ok := Lookup(p); ok {
		return d.Name
	}
	return fmt.Sprintf("Protocol(%d)", int(p))
}

// Valid reports whether p is a registered protocol.
func (p ID) Valid() bool {
	_, ok := Lookup(p)
	return ok
}

// Model returns the fault model the protocol is designed for.
func (p ID) Model() quorum.FaultModel {
	if d, ok := Lookup(p); ok {
		return d.Model
	}
	return quorum.FailStop
}

// MaxFaults returns the largest tolerable k for the protocol at system
// size n (0 for unregistered ids).
func (p ID) MaxFaults(n int) int {
	d, ok := Lookup(p)
	if !ok {
		return 0
	}
	if d.MaxFaults != nil {
		return d.MaxFaults(n)
	}
	return quorum.MaxFaults(n, d.Model)
}

// Aliases returns the protocol's accepted parse spellings.
func (p ID) Aliases() []string {
	if d, ok := Lookup(p); ok {
		return append([]string(nil), d.Aliases...)
	}
	return nil
}

// DefaultCoin returns the protocol's registered coin scheme.
func (p ID) DefaultCoin() coin.Scheme {
	if d, ok := Lookup(p); ok {
		return d.Coin
	}
	return coin.SchemeNone
}

// NeedsCoin reports whether the protocol draws coin randomness.
func (p ID) NeedsCoin() bool { return p.DefaultCoin() != coin.SchemeNone }

// NeedsDirectory reports whether the protocol's echo stage can run over
// the sampled broadcast primitive.
func (p ID) NeedsDirectory() bool {
	if d, ok := Lookup(p); ok {
		return d.NeedsDirectory
	}
	return false
}

// Bound renders the protocol's resilience bound for humans.
func (p ID) Bound() string {
	if d, ok := Lookup(p); ok {
		return d.Bound
	}
	return ""
}
