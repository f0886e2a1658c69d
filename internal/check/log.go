package check

import (
	"encoding/binary"

	"resilient/internal/msg"
)

// Digest is a running FNV-1a (64-bit) digest of the operations a log
// replica committed, each folded as its uvarint length and then its bytes:
// exactly the bytes of the batch frames that carry it. The zero Digest is
// the digest of nothing, so a replica that committed no operation holds 0.
type Digest uint64

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Fold returns d extended by b.
func (d Digest) Fold(b []byte) Digest {
	h := uint64(d) ^ fnvOffset
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return Digest(h ^ fnvOffset)
}

// FoldOp returns d extended by one operation, length-prefixed.
func (d Digest) FoldOp(op []byte) Digest {
	var buf [binary.MaxVarintLen64]byte
	return d.Fold(buf[:binary.PutUvarint(buf[:], uint64(len(op)))]).Fold(op)
}

// LogReplica is what one replica of a replicated log committed, in O(1)
// state: how many slots it took part in and committed, how many operations
// it committed, and their digest in commit order.
type LogReplica struct {
	// Alive counts the slots the replica took part in; Slots those it
	// committed -- decided, and for a batch slot held the whole batch.
	Alive, Slots int
	// Ops counts the operations it committed and Digest folds them.
	Ops    int
	Digest Digest
}

// Log checks a replicated-log run -- the operations submitted, the committed
// sequence, and what each replica committed -- and returns every violation
// (nil when clean):
//
//   - log-prefix: each replica's digest is the digest of committed[:Ops],
//     so every replica committed a prefix of one sequence;
//   - log-gap: each replica committed every slot it took part in, and a
//     replica that took part to the end committed the whole sequence;
//   - log-validity: every committed operation was submitted, by bytes;
//   - log-duplicate: no operation is committed more often than submitted.
func Log(submitted, committed [][]byte, replicas []LogReplica) []Violation {
	c := &checker{}
	prefix := make([]Digest, len(committed)+1)
	for i, op := range committed {
		prefix[i+1] = prefix[i].FoldOp(op)
	}
	end := 0
	for _, rp := range replicas {
		end = max(end, rp.Alive)
	}
	for i, rp := range replicas {
		p := msg.ID(i)
		switch {
		case rp.Ops < 0 || rp.Ops > len(committed):
			c.fail("log-prefix", p, "committed %d ops of a %d-op log", rp.Ops, len(committed))
		case rp.Digest != prefix[rp.Ops]:
			c.fail("log-prefix", p, "its digest diverges from that of the log's first %d ops", rp.Ops)
		}
		if rp.Slots != rp.Alive {
			c.fail("log-gap", p, "committed %d of the %d slots it took part in", rp.Slots, rp.Alive)
		} else if rp.Alive == end && rp.Ops != len(committed) {
			c.fail("log-gap", p, "took part in every slot but committed %d of %d ops", rp.Ops, len(committed))
		}
	}
	left := make(map[string]int, len(submitted))
	for _, op := range submitted {
		left[string(op)]++
	}
	for i, op := range committed {
		n, ok := left[string(op)]
		switch {
		case !ok:
			c.fail("log-validity", -1, "committed op %d was never submitted", i)
		case n == 0:
			c.fail("log-duplicate", -1, "committed op %d was already committed as often as submitted", i)
		default:
			left[string(op)] = n - 1
		}
	}
	return c.violations
}
