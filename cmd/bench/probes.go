package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"

	"resilient"
	"resilient/internal/core"
	"resilient/internal/echo"
	"resilient/internal/livenet"
	"resilient/internal/msg"
	"resilient/internal/netxport"
	"resilient/internal/sample"
	"resilient/internal/transport"
)

// A probe times calls into one layer's exported functions, from outside the
// program, on inputs shaped like a workload's. It yields one value per name.
type probe struct {
	names []string
	run   func(ctx context.Context, scale float64) ([]float64, error)
}

var probes = []probe{
	{[]string{"msg.encode_ns", "msg.decode_ns"}, probeCodec},
	{[]string{"netxport.loopback_msgs_per_s"}, probeLoopback},
	{[]string{"netxport.instance_open_us", "netxport.instance_alloc_kb"}, probeInstanceOpen},
	{[]string{"netxport.mesh_setup_ms"}, probeMeshSetup},
	{[]string{"transport.mem_msgs_per_s"}, probeMemTransport},
	{[]string{"livenet.slot_us_tcp"}, probeSlotTCP},
	{[]string{"livenet.slot_us_mem"}, probeSlotMem},
	{[]string{"log.mem_ops_per_s"}, func(ctx context.Context, s float64) ([]float64, error) {
		return probeLogEngine(ctx, resilient.EngineMem, s)
	}},
	{[]string{"log.sim_ops_per_s"}, func(ctx context.Context, s float64) ([]float64, error) {
		return probeLogEngine(ctx, resilient.EngineSim, s)
	}},
	{[]string{"runtime.spawn_ms"}, probeSpawn},
	{[]string{"malicious.step_ns"}, probeMaliciousStep},
	{[]string{"echo.observe_ns"}, probeEchoObserve},
	{[]string{"sample.observe_ns", "sample.directory_ms"}, probeSample},
}

// runProbe runs p, turning a panic inside the probed layer into the probe's
// error so the rest of the traced run still reports.
func runProbe(ctx context.Context, p probe, scale float64) (vals []float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	vals, err = p.run(ctx, scale)
	if err == nil && len(vals) != len(p.names) {
		err = fmt.Errorf("probe returned %d values for %d names", len(vals), len(p.names))
	}
	return vals, err
}

func scaleCount(n int, scale float64) int {
	if s := int(float64(n) * scale); s > 1 {
		return s
	}
	return 1
}

func nsPer(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

var sink int // keeps probed results alive

// probeCodec: AppendEncode into a reused buffer and Decoder.Decode from a
// stream, per Echo frame -- the message the log's slots exchange most.
func probeCodec(_ context.Context, scale float64) ([]float64, error) {
	n := scaleCount(2_000_000, scale)
	m := msg.Echo(3, 5, 2, msg.V1)
	buf := make([]byte, 0, 64)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		m.Phase = msg.Phase(i & 7)
		buf = msg.AppendEncode(buf[:0], m)
	}
	encode := nsPer(time.Since(t0), n)
	sink += len(buf)

	const chunk = 4096
	var stream []byte
	for i := 0; i < chunk; i++ {
		m.Phase = msg.Phase(i & 7)
		stream = msg.AppendFrame(stream, msg.AppendEncode(buf[:0], m))
	}
	rounds := n/chunk + 1
	t0 = time.Now()
	for r := 0; r < rounds; r++ {
		d := msg.NewDecoder(bytes.NewReader(stream))
		for {
			got, err := d.Decode()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, err
			}
			sink += int(got.Phase)
		}
	}
	return []float64{encode, nsPer(time.Since(t0), rounds*chunk)}, nil
}

// probeLoopback: the transport alone -- header-only messages over a 7-node
// loopback mesh, no consensus.
func probeLoopback(ctx context.Context, scale float64) ([]float64, error) {
	rep, err := resilient.RunTCPSaturation(ctx, resilient.SaturationOptions{N: logN, Messages: scaleCount(300_000, scale)})
	if err != nil {
		return nil, err
	}
	return []float64{rep.MsgsPerSec}, nil
}

// probeInstanceOpen: claiming and releasing one instance conn, which the log
// does once per (slot, replica).
func probeInstanceOpen(_ context.Context, scale float64) ([]float64, error) {
	ep, err := netxport.Listen(0, []string{"127.0.0.1:0"})
	if err != nil {
		return nil, err
	}
	defer ep.Close()
	n := scaleCount(2000, scale)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		c, err := ep.Instance(uint32(i + 1))
		if err != nil {
			return nil, err
		}
		c.Close()
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&after)
	return []float64{
		nsPer(d, n) / 1e3,
		float64(after.TotalAlloc-before.TotalAlloc) / float64(n) / 1024,
	}, nil
}

// newMesh listens on n loopback endpoints and tells each the others'
// addresses, as the root package's cluster helpers do.
func newMesh(n int) ([]*netxport.Endpoint, error) {
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	eps := make([]*netxport.Endpoint, 0, n)
	for i := 0; i < n; i++ {
		ep, err := netxport.Listen(msg.ID(i), addrs)
		if err != nil {
			closeMesh(eps)
			return nil, err
		}
		eps = append(eps, ep)
	}
	for _, ep := range eps {
		for j, peer := range eps {
			ep.SetPeerAddr(msg.ID(j), peer.Addr())
		}
	}
	return eps, nil
}

func closeMesh(eps []*netxport.Endpoint) {
	for _, ep := range eps {
		ep.Close()
	}
}

// dialMesh makes every endpoint exchange one message with every peer, so
// every connection of the mesh is dialled and accepted.
func dialMesh(eps []*netxport.Endpoint) error {
	n := len(eps)
	for i, ep := range eps {
		for j := 0; j < n; j++ {
			if j != i {
				if err := ep.Send(msg.ID(j), msg.Val(msg.ID(i), 0, msg.V1)); err != nil {
					return err
				}
			}
		}
	}
	for _, ep := range eps {
		for j := 0; j < n-1; j++ {
			if _, err := ep.Recv(); err != nil {
				return err
			}
		}
	}
	return nil
}

// probeMeshSetup: listen, exchange addresses and dial all 42 connections of
// the 7-node mesh; every log run and every saturation run pays this once.
func probeMeshSetup(_ context.Context, scale float64) ([]float64, error) {
	times := make([]float64, scaleCount(9, scale))
	for i := range times {
		t0 := time.Now()
		eps, err := newMesh(logN)
		if err != nil {
			return nil, err
		}
		err = dialMesh(eps)
		times[i] = time.Since(t0).Seconds() * 1e3
		closeMesh(eps)
		if err != nil {
			return nil, err
		}
	}
	return []float64{median(times)}, nil
}

// probeMemTransport: Send/Recv between two conns of the in-memory transport.
func probeMemTransport(_ context.Context, scale float64) ([]float64, error) {
	n := scaleCount(500_000, scale)
	tm := transport.NewMem(2)
	defer tm.Close()
	from, err := tm.Conn(0)
	if err != nil {
		return nil, err
	}
	to, err := tm.Conn(1)
	if err != nil {
		return nil, err
	}
	m := msg.Val(0, 0, msg.V1)
	sent := make(chan error, 1)
	t0 := time.Now()
	go func() {
		for i := 0; i < n; i++ {
			if err := from.Send(1, m); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	for i := 0; i < n; i++ {
		if _, err := to.Recv(); err != nil {
			return nil, errors.Join(err, <-sent)
		}
	}
	d := time.Since(t0)
	if err := <-sent; err != nil {
		return nil, err
	}
	return []float64{float64(n) / d.Seconds()}, nil
}

func slotMachines() ([]core.Machine, error) {
	ms := make([]core.Machine, logN)
	for i := range ms {
		m, err := resilient.NewMachine(resilient.ProtocolMalicious, resilient.MachineConfig{
			N: logN, K: resilient.ProtocolMalicious.MaxFaults(logN), Self: resilient.ID(i), Input: resilient.V1,
		})
		if err != nil {
			return nil, err
		}
		ms[i] = m
	}
	return ms, nil
}

// serialSlots times count one-at-a-time RunInstance calls of the log's slot
// (7 replicas, unanimous V1) over the conns connsFor makes, and returns the
// median in microseconds: one slot's critical path with nothing queued.
func serialSlots(ctx context.Context, count int, connsFor func(slot int) ([]transport.Conn, error)) ([]float64, error) {
	all := make([]bool, logN)
	for i := range all {
		all[i] = true
	}
	times := make([]float64, count)
	for s := range times {
		machines, err := slotMachines()
		if err != nil {
			return nil, err
		}
		conns, err := connsFor(s)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		out, err := livenet.RunInstance(ctx, machines, conns, all, nil)
		times[s] = float64(time.Since(t0).Microseconds())
		if err != nil {
			return nil, err
		}
		if !out.Agreement || out.Decided != logN || out.Value != msg.V1 {
			return nil, fmt.Errorf("slot %d: decided=%d agreement=%v value=%v", s, out.Decided, out.Agreement, out.Value)
		}
	}
	return []float64{median(times)}, nil
}

func probeSlotTCP(ctx context.Context, scale float64) ([]float64, error) {
	eps, err := newMesh(logN)
	if err != nil {
		return nil, err
	}
	defer closeMesh(eps)
	if err := dialMesh(eps); err != nil {
		return nil, err
	}
	return serialSlots(ctx, scaleCount(500, scale), func(slot int) ([]transport.Conn, error) {
		conns := make([]transport.Conn, logN)
		for i, ep := range eps {
			c, err := ep.Instance(uint32(slot + 1))
			if err != nil {
				return nil, err
			}
			conns[i] = c
		}
		return conns, nil
	})
}

func probeSlotMem(ctx context.Context, scale float64) ([]float64, error) {
	return serialSlots(ctx, scaleCount(500, scale), func(int) ([]transport.Conn, error) {
		tm := transport.NewMem(logN) // RunInstance closes the conns, which is all a Mem holds
		conns := make([]transport.Conn, logN)
		for i := range conns {
			c, err := tm.Conn(msg.ID(i))
			if err != nil {
				return nil, err
			}
			conns[i] = c
		}
		return conns, nil
	})
}

// probeLogEngine: a third of the log_tcp_sat rep on another engine --
// EngineMem is everything but the wire, EngineSim the machines alone.
func probeLogEngine(ctx context.Context, engine resilient.Engine, scale float64) ([]float64, error) {
	w := workloads[0].scaled(scale / 3)
	opts := w.logOptions(1, nil)
	opts.Engine = engine
	ops := genOps(1, w.ops)
	rep, err := resilient.RunLog(ctx, opts, ops)
	if err != nil {
		return nil, err
	}
	if failed := failedOps(len(ops), ops, rep.Committed); failed > 0 {
		return nil, fmt.Errorf("%d of %d ops not committed in order", failed, len(ops))
	}
	return []float64{rep.OpsPerSec}, nil
}

// probeSpawn: sim_bcast_10k stopped after one event, so what is timed is the
// run's set-up -- plan, directory and 10,000 machines.
func probeSpawn(_ context.Context, scale float64) ([]float64, error) {
	w, _ := findWorkload("sim_bcast_10k")
	w = w.scaled(scale)
	in := w.simInputs()
	times := make([]float64, 3)
	for i := range times {
		opts := w.simOptions(uint64(i+1), nil)
		opts.MaxEvents = 1
		t0 := time.Now()
		if _, err := resilient.Simulate(w.protocol, w.n, w.k, in, opts); err != nil {
			return nil, err
		}
		times[i] = time.Since(t0).Seconds() * 1e3
	}
	return []float64{median(times)}, nil
}

// probeMaliciousStep: sim_malicious_byz's 31 machines, all honest, pumped to
// decision through one in-process FIFO; the time per OnMessage includes the
// FIFO's push and pop but no event queue, policy or adversary.
func probeMaliciousStep(_ context.Context, scale float64) ([]float64, error) {
	w, _ := findWorkload("sim_malicious_byz")
	in := w.simInputs()
	type envelope struct {
		to int
		m  msg.Message
	}
	var calls int
	var busy time.Duration
	for round := 0; round < scaleCount(8, scale); round++ {
		machines := make([]core.Machine, w.n)
		for i := range machines {
			m, err := resilient.NewMachine(w.protocol, resilient.MachineConfig{N: w.n, K: w.k, Self: resilient.ID(i), Input: in[i]})
			if err != nil {
				return nil, err
			}
			machines[i] = m
		}
		var queue []envelope
		push := func(outs []core.Outbound) {
			for _, o := range outs {
				if o.To != msg.Broadcast {
					queue = append(queue, envelope{int(o.To), o.Msg})
					continue
				}
				for to := range machines {
					queue = append(queue, envelope{to, o.Msg})
				}
			}
		}
		t0 := time.Now()
		for _, m := range machines {
			push(m.Start())
		}
		undecided := len(machines)
		for head := 0; undecided > 0; head++ {
			if head == len(queue) {
				return nil, fmt.Errorf("FIFO drained with %d machines undecided", undecided)
			}
			if head > 5_000_000 {
				return nil, fmt.Errorf("%d machines undecided after %d messages", undecided, head)
			}
			e := queue[head]
			mach := machines[e.to]
			_, was := mach.Decided()
			push(mach.OnMessage(e.m))
			if _, now := mach.Decided(); now && !was {
				undecided--
			}
			calls++
		}
		busy += time.Since(t0)
	}
	return []float64{nsPer(busy, calls)}, nil
}

// probeEchoObserve: the dense tracker at sim_malicious_byz's size, every
// (sender, subject) pair of a phase in turn, pruning behind itself as the
// machine does.
func probeEchoObserve(_ context.Context, scale float64) ([]float64, error) {
	w, _ := findWorkload("sim_malicious_byz")
	t := echo.NewTracker(w.n, w.k)
	phases := scaleCount(2000, scale)
	accepts := 0
	t0 := time.Now()
	for p := 0; p < phases; p++ {
		for sender := 0; sender < w.n; sender++ {
			for subject := 0; subject < w.n; subject++ {
				if _, ok := t.Observe(msg.ID(sender), msg.ID(subject), msg.Phase(p), msg.V1); ok {
					accepts++
				}
			}
		}
		t.Prune(msg.Phase(p))
	}
	d := time.Since(t0)
	if accepts != phases*w.n {
		return nil, fmt.Errorf("%d accepts, want %d", accepts, phases*w.n)
	}
	return []float64{nsPer(d, phases*w.n*w.n)}, nil
}

// probeSample: the plan and directory sim_bcast_10k builds once per run, and
// the sparse tracker fed every echo of receiver 0's sample for a window of
// subjects.
func probeSample(_ context.Context, scale float64) ([]float64, error) {
	w, _ := findWorkload("sim_bcast_10k")
	w = w.scaled(scale)
	t0 := time.Now()
	plan, err := sample.NewPlan(w.n, w.k, sample.DefaultEps)
	if err != nil {
		return nil, err
	}
	dir := sample.NewDirectory(plan, 1)
	directory := time.Since(t0).Seconds() * 1e3

	t := sample.NewTracker(dir, 0)
	senders := dir.EchoSample(0)
	const subjects = 64
	phases := scaleCount(400, scale)
	accepts := 0
	t0 = time.Now()
	for p := 0; p < phases; p++ {
		for subject := 0; subject < subjects; subject++ {
			for _, sender := range senders {
				if _, ok := t.Observe(msg.ID(sender), msg.ID(subject), msg.Phase(p), msg.V1); ok {
					accepts++
				}
			}
		}
		t.Prune(msg.Phase(p))
	}
	d := time.Since(t0)
	if accepts != phases*subjects {
		return nil, fmt.Errorf("%d accepts, want %d", accepts, phases*subjects)
	}
	return []float64{nsPer(d, phases*subjects*len(senders)), directory}, nil
}
