package resilient

import (
	"context"
	"fmt"
	"maps"
	"math"
	"reflect"
	"testing"
	"time"

	"resilient/internal/byzantine"
	"resilient/internal/core"
	"resilient/internal/livenet"
	"resilient/internal/msg"
	"resilient/internal/runtime"
	"resilient/internal/sample"
)

// unicastLists wraps a machine and rewrites every multicast it emits back
// into the list of unicasts that form replaced.
type unicastLists struct{ core.Machine }

func (u unicastLists) Start() []core.Outbound { return flatten(u.Machine.Start()) }

func (u unicastLists) OnMessage(m msg.Message) []core.Outbound {
	return flatten(u.Machine.OnMessage(m))
}

func flatten(outs []core.Outbound) []core.Outbound {
	var flat []core.Outbound
	for _, o := range outs {
		if o.To != msg.Multicast {
			flat = append(flat, o)
			continue
		}
		for _, t := range o.Targets {
			flat = append(flat, core.To(msg.ID(t), o.Msg))
		}
	}
	return flat
}

// wrapSpawn returns cfg with wrap applied to every machine selected by only
// (nil selects all).
func wrapSpawn(cfg runtime.Config, only map[ID]bool, wrap func(core.Machine) core.Machine) runtime.Config {
	spawn := cfg.Spawn
	cfg.Spawn = func(ctx runtime.SpawnContext) (core.Machine, error) {
		m, err := spawn(ctx)
		if err != nil || (only != nil && !only[ctx.Config.Self]) {
			return m, err
		}
		return wrap(m), nil
	}
	return cfg
}

// counts is the part of a Result worth printing when two runs differ.
func counts(r *Result) string {
	return fmt.Sprintf("decided %d (all %v, agree %v) sent %d delivered %d dropped %d events %d phase %d crashed %v t=%x",
		len(r.Decisions), r.AllDecided, r.Agreement, r.MessagesSent, r.MessagesDelivered,
		r.MessagesDropped, r.Events, r.MaxPhase, r.Crashed, math.Float64bits(r.SimTime))
}

// TestMulticastMatchesUnicastLists is the execution-identity claim behind
// core.ToMany, stronger than the golden pins: a run whose machines emit
// multicasts and the same run with every multicast rewritten into the
// unicast list it replaced are the same execution -- same decisions, message
// and event counts, crash list and bit-exact clock -- fault-free and under a
// crash plan whose send budgets run out part-way through a target list.
func TestMulticastMatchesUnicastLists(t *testing.T) {
	// half is a budget that ends strictly inside list.
	half := func(t *testing.T, list []int32) int {
		t.Helper()
		if len(list) < 2 {
			t.Fatalf("target list %v too short to crash inside", list)
		}
		return len(list) / 2
	}
	for _, tc := range []struct {
		name    string
		p       Protocol
		n, k    int
		inputs  []Value
		crashes func(t *testing.T, d *sample.Directory) map[ID]Crash
	}{
		{
			name: "broadcast", p: ProtocolBroadcast, n: 200, k: 20, inputs: unanimous(200, V1),
			// One process dies inside each of its three multicasts.
			crashes: func(t *testing.T, d *sample.Directory) map[ID]Crash {
				return map[ID]Crash{
					7:  {Process: 7, AfterSends: half(t, d.GossipTargets(7))},
					11: {Process: 11, AfterSends: len(d.GossipTargets(11)) + half(t, d.EchoTargets(11))},
					13: {Process: 13, AfterSends: len(d.GossipTargets(13)) + len(d.EchoTargets(13)) + half(t, d.ReadyTargets(13))},
				}
			},
		},
		{
			name: "malicious", p: ProtocolMalicious, n: 64, k: 10, inputs: mixed(64),
			// The phase's initial broadcast goes out whole (n sends); the
			// first echo multicast after it does not.
			crashes: func(t *testing.T, d *sample.Directory) map[ID]Crash {
				return map[ID]Crash{
					5: {Process: 5, Phase: 0, AfterSends: 64 + half(t, d.EchoTargets(5))},
					9: {Process: 9, Phase: 1, AfterSends: 64 + half(t, d.EchoTargets(9))},
				}
			},
		},
	} {
		for seed := uint64(1); seed <= 3; seed++ {
			for _, crashing := range []bool{false, true} {
				opts := SimOptions{Seed: seed, Broadcast: SchemeSample, RunToCompletion: true}
				if crashing {
					sc := Scenario{Protocol: tc.p, N: tc.n, K: tc.k, Inputs: tc.inputs, Seed: seed, Broadcast: SchemeSample}
					sp, err := validate(&sc, EngineSim)
					if err != nil {
						t.Fatal(err)
					}
					opts.Crashes = tc.crashes(t, sp.Dir)
				}
				cfg, err := simConfig(tc.p, tc.n, tc.k, tc.inputs, opts)
				if err != nil {
					t.Fatal(err)
				}
				multi, err := runtime.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				uni, err := runtime.Run(wrapSpawn(cfg, nil, func(m core.Machine) core.Machine { return unicastLists{m} }))
				if err != nil {
					t.Fatal(err)
				}
				multi.WallClock, uni.WallClock = 0, 0
				if !reflect.DeepEqual(multi, uni) || math.Float64bits(multi.SimTime) != math.Float64bits(uni.SimTime) {
					t.Errorf("%s seed=%d crashes=%v: executions differ\nmulticast: %s\nunicast:   %s",
						tc.name, seed, crashing, counts(multi), counts(uni))
				}
				if !multi.AllDecided || !multi.Agreement || multi.MessagesSent == 0 {
					t.Errorf("%s seed=%d crashes=%v: run did not complete: %s", tc.name, seed, crashing, counts(multi))
				}
				if len(multi.Crashed) != len(opts.Crashes) {
					t.Errorf("%s seed=%d: crashed %v, want all of %v", tc.name, seed, multi.Crashed, opts.Crashes)
				}
			}
		}
	}
}

// TestEngineParityOutOfRangeSends: one process whose every send is followed
// by a unicast to a process that does not exist and a multicast whose list is
// mostly out of range costs the correct processes nothing, on the simulator
// and on a live engine alike -- the destinations are skipped, not turned into
// a transport error that aborts the run.
func TestEngineParityOutOfRangeSends(t *testing.T) {
	const n, k, bad = 7, 2, ID(4)
	sc := Scenario{Protocol: ProtocolMalicious, N: n, K: k, Inputs: unanimous(n, V1), Seed: 3}
	hostile := func(inner core.Machine) core.Machine {
		return byzantine.NewMutated(inner, func(dst []core.Outbound, o core.Outbound) []core.Outbound {
			return append(dst, o, core.To(msg.ID(n), o.Msg), core.ToMany([]int32{-1, n, 0}, o.Msg))
		})
	}
	byz := map[ID]bool{bad: true}

	cfg, err := simConfig(sc.Protocol, n, k, sc.Inputs, SimOptions{Seed: sc.Seed})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Byzantine = byz
	sim, err := runtime.Run(wrapSpawn(cfg, byz, hostile))
	if err != nil {
		t.Fatal(err)
	}

	sp, err := validate(&sc, EngineMem)
	if err != nil {
		t.Fatal(err)
	}
	machines, err := sp.Machines(n, k, sc.Inputs)
	if err != nil {
		t.Fatal(err)
	}
	machines[bad] = hostile(machines[bad])
	cluster, err := livenet.NewMemCluster(machines)
	if err != nil {
		t.Fatal(err)
	}
	cluster.Byzantine = byz
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	live, err := cluster.Run(ctx)
	if err != nil {
		t.Fatalf("%v: %v", EngineMem, err)
	}

	want := make(map[ID]Value, n-1)
	for id := ID(0); id < n; id++ {
		if id != bad {
			want[id] = V1
		}
	}
	if !maps.Equal(sim.Decisions, want) {
		t.Errorf("%v: decisions %v, want %v", EngineSim, sim.Decisions, want)
	}
	if got := live.Decisions; !maps.Equal(got, want) {
		t.Errorf("%v: decisions %v, want %v", EngineMem, got, want)
	}
}
