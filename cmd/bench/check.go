package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"

	"resilient"
)

// Every op, harness-generated or made by the open-loop driver, starts with
// its 8-byte big-endian submission sequence number.
func putSeq(b []byte, v uint64) { binary.BigEndian.PutUint64(b, v) }
func getSeq(b []byte) uint64    { return binary.BigEndian.Uint64(b) }

// failedOps counts submitted ops that were not committed exactly once in
// submission order: position i of the committed sequence must hold sequence
// number i and, where the harness made the ops, the submitted bytes. A
// dropped, duplicated or reordered op therefore fails itself and shifts (so
// fails) what follows it, which is as loud as intended.
func failedOps(attempted int, submitted, committed [][]byte) int {
	ok := 0
	for i, op := range committed {
		if i >= attempted || len(op) < 8 || getSeq(op) != uint64(i) {
			continue
		}
		if submitted != nil && !bytes.Equal(op, submitted[i]) {
			continue
		}
		ok++
	}
	return attempted - ok
}

// checkLog checks a log rep's outputs: the committed sequence against what
// was submitted (returning how many ops failed), the slot accounting, and that no-op slots appear only where
// the fault plan puts them -- at or after the crash slot, on slots whose
// rotating proposer is the crashed process -- and never on a fault-free run.
func checkLog(w workload, submitted [][]byte, rep *resilient.LogReport) (failed int, err error) {
	failed = failedOps(w.ops, submitted, rep.Committed)
	if rep.Ops != len(rep.Committed) {
		return failed, fmt.Errorf("%s: report counts %d ops but holds %d", w.name, rep.Ops, len(rep.Committed))
	}
	if rep.Slots-rep.NoopSlots != rep.Batches {
		return failed, fmt.Errorf("%s: %d slots - %d no-op slots != %d batches", w.name, rep.Slots, rep.NoopSlots, rep.Batches)
	}
	if len(rep.SlotDecisions) != rep.Slots {
		return failed, fmt.Errorf("%s: %d slot decisions for %d slots", w.name, len(rep.SlotDecisions), rep.Slots)
	}
	noops := 0
	for slot, v := range rep.SlotDecisions {
		if v == resilient.V1 {
			continue
		}
		noops++
		if w.crashSlot == 0 || slot < w.crashSlot || slot%logN != crashedProcess {
			return failed, fmt.Errorf("%s: slot %d (proposer %d) decided no-op outside the fault plan", w.name, slot, slot%logN)
		}
	}
	if noops != rep.NoopSlots {
		return failed, fmt.Errorf("%s: %d no-op decisions but %d no-op slots", w.name, noops, rep.NoopSlots)
	}
	if w.crashSlot > 0 && rep.Slots > w.crashSlot+logN && noops == 0 {
		return failed, fmt.Errorf("%s: process %d crashed at slot %d of %d but no slot was a no-op", w.name, crashedProcess, w.crashSlot, rep.Slots)
	}
	return failed, nil
}

// simReference is what the verified (traced, untimed) run of the first seed
// produced; the timed run of that seed must reproduce it.
type simReference struct {
	messages  int
	decisions map[resilient.ID]resilient.Value
}

// verifySim runs the first seed once more, outside any timed section, and
// checks it with the repo's own checker over a full trace. resilient.Verify
// cannot judge ProtocolBroadcast -- the broadcast machines emit no decide
// event, so it reports every delivery as missing from the trace -- and that
// workload is checked directly instead: every process delivers the origin's
// value.
func verifySim(w workload, in inputs) (*simReference, error) {
	opts := w.simOptions(in.simSeeds[0], nil)
	broadcast := w.protocol == resilient.ProtocolBroadcast
	var buf *resilient.TraceBuffer
	if !broadcast {
		buf = resilient.NewTraceBuffer(0)
		opts.Trace = buf
	}
	res, err := resilient.Simulate(w.protocol, w.n, w.k, in.simIn, opts)
	if err != nil {
		return nil, fmt.Errorf("%s: verified run: %w", w.name, err)
	}
	if broadcast {
		if len(res.Decisions) != w.n {
			return nil, fmt.Errorf("%s: verified run: %d of %d processes delivered", w.name, len(res.Decisions), w.n)
		}
		for p, v := range res.Decisions {
			if v != in.simIn[0] {
				return nil, fmt.Errorf("%s: verified run: process %d delivered %d, origin sent %d", w.name, p, v, in.simIn[0])
			}
		}
	} else if vs := resilient.Verify(w.protocol, w.n, w.k, in.simIn, w.adversaries(), buf, res); len(vs) > 0 {
		return nil, fmt.Errorf("%s: verified run: %d violations, first: %v", w.name, len(vs), vs[0])
	}
	return &simReference{messages: res.MessagesSent, decisions: res.Decisions}, nil
}

// checkSim counts runs that did not end decided and in agreement, and checks
// the first seed against the verified run.
func checkSim(sims []*resilient.Result, ref *simReference) (failed int, err error) {
	for _, res := range sims {
		if !res.AllDecided || !res.Agreement {
			failed++
		}
	}
	first := sims[0]
	if first.MessagesSent != ref.messages {
		return failed, fmt.Errorf("first seed sent %d messages, its verified run %d", first.MessagesSent, ref.messages)
	}
	if !reflect.DeepEqual(first.Decisions, ref.decisions) {
		return failed, fmt.Errorf("first seed's decisions differ from its verified run")
	}
	return failed, nil
}
