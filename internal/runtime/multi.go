package runtime

import (
	"fmt"
	"time"
)

// MultiResult is one instance's outcome in a RunMulti execution, placed on
// the shared global clock.
type MultiResult struct {
	// Result is the instance's ordinary result; its SimTime and decision
	// times are instance-local (the instance's clock starts at 0 when it is
	// admitted).
	Result *Result
	// Start and End are the instance's admission and completion times on
	// the global virtual clock: End - Start is the instance's virtual
	// latency including any time it spent interleaved with its window
	// peers.
	Start, End float64
}

// multiInst is one in-flight instance of a multi-run.
type multiInst struct {
	index     int
	r         *runner
	offset    float64 // global admission time; global time = offset + r.now
	maxEvents int
	started   time.Time
}

// RunMulti executes many independent consensus instances over ONE shared
// virtual clock with a pipeline window: at most window instances are in
// flight at a time, instance i+window is admitted the moment an in-flight
// instance finishes, and within the window event processing interleaves in
// global-time order -- exactly the shape of a replicated log running w slots
// concurrently. Each instance is a complete Config executed with the same
// per-event semantics as Run (the instances share runner.stepNext), so a
// single-instance window degrades to sequential Run calls.
//
// Determinism: instances draw from their own seeded RNGs and never exchange
// messages, so the interleaving -- min global next-event time, ties to the
// earlier-admitted instance -- is a pure function of the Configs. Results
// are returned in instance order.
//
// An error reports an invalid configuration; protocol misbehaviour and
// stalls are reported per-instance through the Results.
func RunMulti(instances []Config, window int) ([]MultiResult, error) {
	if len(instances) == 0 {
		return nil, nil
	}
	if window < 1 {
		return nil, fmt.Errorf("runtime: pipeline window %d < 1", window)
	}

	results := make([]MultiResult, len(instances))
	active := make([]*multiInst, 0, window)
	next := 0
	now := 0.0 // global virtual clock: latest processed event time

	admit := func() error {
		for len(active) < window && next < len(instances) {
			r, err := newRunner(instances[next])
			if err != nil {
				return fmt.Errorf("runtime: instance %d: %w", next, err)
			}
			inst := &multiInst{
				index:     next,
				r:         r,
				offset:    now,
				maxEvents: r.maxEvents(),
				started:   time.Now(), //lint:allow walltime wall-clock run accounting; machines never observe it
			}
			r.start()
			results[next].Start = now
			active = append(active, inst)
			next++
		}
		return nil
	}
	if err := admit(); err != nil {
		return nil, err
	}

	for len(active) > 0 {
		// Pick the instance owning the globally next event. An instance
		// whose queue is empty cannot progress and is finalized first; ties
		// on event time go to the earlier-admitted instance, keeping the
		// schedule a pure function of the configs.
		best, bestAt := -1, 0.0
		for i, a := range active {
			nextAt, ok := a.r.queue.peekAt()
			if !ok {
				best = i
				break
			}
			if at := a.offset + nextAt; best == -1 || at < bestAt {
				best, bestAt = i, at
			}
		}
		a := active[best]
		if a.r.stepNext(a.maxEvents) {
			if at := a.offset + a.r.now; at > now {
				now = at
			}
			continue
		}
		// Instance over: finalize, free its slot, admit the next one.
		a.r.result.WallClock = time.Since(a.started) //lint:allow walltime wall-clock run accounting; machines never observe it
		a.r.finish()
		results[a.index].Result = a.r.result
		results[a.index].End = a.offset + a.r.now
		active = append(active[:best], active[best+1:]...)
		if err := admit(); err != nil {
			return nil, err
		}
	}
	return results, nil
}
