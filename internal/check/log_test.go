package check

import (
	"encoding/binary"
	"fmt"
	"testing"
)

// TestLogDigestMatchesFrames pins that a digest folded op by op equals one
// folded over the ops' length-prefixed concatenation -- the batch frame
// bytes a replica folds -- and that the zero digest is the empty log's.
func TestLogDigestMatchesFrames(t *testing.T) {
	ops := [][]byte{[]byte("a"), make([]byte, 300), nil, []byte("tail")}
	var byOp Digest
	var frame []byte
	for _, op := range ops {
		byOp = byOp.FoldOp(op)
		frame = append(binary.AppendUvarint(frame, uint64(len(op))), op...)
	}
	if got := Digest(0).Fold(frame); got != byOp {
		t.Fatalf("digest over the frame %#x, op by op %#x", got, byOp)
	}
	if Digest(0).Fold(nil) != 0 {
		t.Fatal("folding nothing moved the zero digest")
	}
}

// TestLogRejectsBadReports hands check.Log one clean report and four
// hand-built bad ones, and requires exactly the broken invariant of each.
func TestLogRejectsBadReports(t *testing.T) {
	submitted := [][]byte{[]byte("op0"), []byte("op1"), []byte("op2"), []byte("op3")}
	// replica commits the first ops of log over slots slots, alive for all.
	replica := func(log [][]byte, ops, slots int) LogReplica {
		var d Digest
		for _, op := range log[:ops] {
			d = d.FoldOp(op)
		}
		return LogReplica{Alive: slots, Slots: slots, Ops: ops, Digest: d}
	}
	good := replica(submitted, 4, 2)
	for _, tc := range []struct {
		name      string
		committed [][]byte
		replicas  []LogReplica
		want      []string // "invariant p<id>" per violation, p-1 for global
	}{
		{
			name:      "clean",
			committed: submitted,
			// p2 died after the first slot, holding its first two ops.
			replicas: []LogReplica{good, good, replica(submitted, 2, 1)},
		},
		{
			name:      "diverged digest",
			committed: submitted,
			replicas: []LogReplica{good, replica([][]byte{
				[]byte("op0"), []byte("opX"), []byte("op2"), []byte("op3"),
			}, 4, 2)},
			want: []string{"log-prefix p1"},
		},
		{
			name:      "replica short of a slot",
			committed: submitted,
			replicas:  []LogReplica{good, {Alive: 2, Slots: 1, Ops: 2, Digest: replica(submitted, 2, 1).Digest}},
			want:      []string{"log-gap p1"},
		},
		{
			name:      "duplicated op",
			committed: [][]byte{[]byte("op0"), []byte("op1"), []byte("op1")},
			replicas:  []LogReplica{replica([][]byte{[]byte("op0"), []byte("op1"), []byte("op1")}, 3, 2)},
			want:      []string{"log-duplicate p-1"},
		},
		{
			name:      "unsubmitted op",
			committed: [][]byte{[]byte("op0"), []byte("forged")},
			replicas:  []LogReplica{replica([][]byte{[]byte("op0"), []byte("forged")}, 2, 1)},
			want:      []string{"log-validity p-1"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got []string
			for _, v := range Log(submitted, tc.committed, tc.replicas) {
				got = append(got, fmt.Sprintf("%s p%d", v.Invariant, v.Process))
			}
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Fatalf("violations %v, want %v", got, tc.want)
			}
		})
	}
}
