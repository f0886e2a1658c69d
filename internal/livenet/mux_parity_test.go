package livenet

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"resilient/internal/core"
	"resilient/internal/failstop"
	"resilient/internal/msg"
	"resilient/internal/netxport"
	"resilient/internal/transport"
)

// tcpMesh starts n netxport endpoints on ephemeral loopback ports, fully
// wired, torn down with the test.
func tcpMesh(t *testing.T, n int) []*netxport.Endpoint {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	endpoints := make([]*netxport.Endpoint, n)
	for i := 0; i < n; i++ {
		ep, err := netxport.Listen(msg.ID(i), addrs)
		if err != nil {
			t.Fatal(err)
		}
		endpoints[i] = ep
		t.Cleanup(func() { ep.Close() })
	}
	for _, ep := range endpoints {
		for j, other := range endpoints {
			ep.SetPeerAddr(msg.ID(j), other.Addr())
		}
	}
	return endpoints
}

// runFailStop runs one fail-stop consensus instance over the given
// connections and returns its decision map. It is goroutine-safe (no
// testing.T), so mux'd instances can run concurrently.
func runFailStop(n, k int, inputs []msg.Value, conns []transport.Conn) (map[msg.ID]msg.Value, error) {
	machines := make([]core.Machine, n)
	for i := range machines {
		m, err := failstop.New(core.Config{N: n, K: k, Self: msg.ID(i), Input: inputs[i]}, nil)
		if err != nil {
			return nil, err
		}
		machines[i] = m
	}
	cluster, err := NewCluster(machines, conns)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rep, err := cluster.Run(ctx)
	if err != nil {
		return nil, err
	}
	if !rep.AllDecided || !rep.Agreement {
		return nil, fmt.Errorf("allDecided=%v agreement=%v decisions=%+v",
			rep.AllDecided, rep.Agreement, rep.Decisions)
	}
	return rep.Decisions, nil
}

// TestMuxParityWithDedicatedSockets pins the multiplexing contract: several
// consensus instances sharing ONE socket mesh via Endpoint.Instance must
// decide exactly what each instance decides on a dedicated
// one-socket-mesh-per-instance deployment. Each instance is unanimous on
// the OPPOSITE value of its neighbours, so validity pins every expected
// decision regardless of scheduling (mixed inputs would make the fail-stop
// decision legitimately arrival-order-dependent on a live engine), while a
// cross-instance frame leak injects wrong-valued frames and flips a pinned
// decision rather than hiding in agreement.
func TestMuxParityWithDedicatedSockets(t *testing.T) {
	const (
		n         = 5
		k         = 2
		instances = 3
	)
	inputsFor := func(j int) []msg.Value {
		in := make([]msg.Value, n)
		for i := range in {
			in[i] = msg.Value(j % 2)
		}
		return in
	}

	// Dedicated: each instance gets its own full mesh of sockets.
	dedicated := make([]map[msg.ID]msg.Value, instances)
	for j := 0; j < instances; j++ {
		endpoints := tcpMesh(t, n)
		conns := make([]transport.Conn, n)
		for i := range conns {
			conns[i] = endpoints[i]
		}
		var err error
		dedicated[j], err = runFailStop(n, k, inputsFor(j), conns)
		if err != nil {
			t.Fatalf("dedicated instance %d: %v", j, err)
		}
	}

	// Mux'd: ONE mesh, instances demuxed by the per-frame instance id,
	// all running concurrently to interleave their frames on the sockets.
	endpoints := tcpMesh(t, n)
	muxed := make([]map[msg.ID]msg.Value, instances)
	errs := make([]error, instances)
	instConns := make([][]transport.Conn, instances)
	for j := 0; j < instances; j++ {
		instConns[j] = make([]transport.Conn, n)
		for i, ep := range endpoints {
			c, err := ep.Instance(uint32(j + 1))
			if err != nil {
				t.Fatal(err)
			}
			instConns[j][i] = c
		}
	}
	var wg sync.WaitGroup
	for j := 0; j < instances; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			muxed[j], errs[j] = runFailStop(n, k, inputsFor(j), instConns[j])
		}(j)
	}
	wg.Wait()

	for j := 0; j < instances; j++ {
		if errs[j] != nil {
			t.Fatalf("mux instance %d: %v", j, errs[j])
		}
		if len(muxed[j]) != n {
			t.Fatalf("instance %d: %d decisions over mux, want %d", j, len(muxed[j]), n)
		}
		for id, v := range dedicated[j] {
			if muxed[j][id] != v {
				t.Errorf("instance %d process %d: mux decided %v, dedicated decided %v",
					j, id, muxed[j][id], v)
			}
		}
	}
}
