package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"resilient"
)

// layerMetric describes one per-layer metric. source says where the number
// comes from: R the MetricsRegistry (or the report) of the traced reps, P an
// isolated probe, C the CPU profile of the traced reps.
type layerMetric struct {
	name, unit, better, source string
}

var layerMetrics = []layerMetric{
	{"msg.encode_ns", "ns", "lower", "P"},
	{"msg.decode_ns", "ns", "lower", "P"},
	{"msg.cpu_share", "share", "lower", "C"},
	{"netxport.frames_per_op", "count", "lower", "R"},
	{"netxport.bytes_per_op", "B", "lower", "R"},
	{"netxport.frames_per_flush", "count", "higher", "R"},
	{"netxport.drops", "count", "lower", "R"},
	{"netxport.loopback_msgs_per_s", "1/s", "higher", "P"},
	{"netxport.instance_open_us", "us", "lower", "P"},
	{"netxport.instance_alloc_kb", "KiB", "lower", "P"},
	{"netxport.mesh_setup_ms", "ms", "lower", "P"},
	{"netxport.cpu_share", "share", "lower", "C"},
	{"syscall.cpu_share", "share", "lower", "C"},
	{"transport.mem_msgs_per_s", "1/s", "higher", "P"},
	{"transport.cpu_share", "share", "lower", "C"},
	{"livenet.msgs_per_slot", "count", "lower", "R"},
	{"livenet.slot_us_tcp", "us", "lower", "P"},
	{"livenet.slot_us_mem", "us", "lower", "P"},
	{"livenet.cpu_share", "share", "lower", "C"},
	{"log.ops_per_batch", "count", "higher", "R"},
	{"log.slots_per_s", "1/s", "higher", "R"},
	{"log.noop_slot_share", "share", "lower", "R"},
	{"log.commit_p99_ms", "ms", "lower", "R"},
	{"log.feed_late_ms", "ms", "lower", "R"},
	{"log.mem_ops_per_s", "1/s", "higher", "P"},
	{"log.sim_ops_per_s", "1/s", "higher", "P"},
	{"log.cpu_share", "share", "lower", "C"},
	{"runtime.events_per_s", "1/s", "higher", "R"},
	{"runtime.event_ns", "ns", "lower", "R"},
	{"runtime.delivered_share", "share", "higher", "R"},
	{"runtime.spawn_ms", "ms", "lower", "P"},
	{"runtime.cpu_share", "share", "lower", "C"},
	{"malicious.step_ns", "ns", "lower", "P"},
	{"malicious.phases_per_run", "count", "lower", "R"},
	{"malicious.cpu_share", "share", "lower", "C"},
	{"echo.observe_ns", "ns", "lower", "P"},
	{"echo.cpu_share", "share", "lower", "C"},
	{"sample.observe_ns", "ns", "lower", "P"},
	{"sample.directory_ms", "ms", "lower", "P"},
	{"sample.cpu_share", "share", "lower", "C"},
	{"go.cpu_share", "share", "lower", "C"},
	{"other.cpu_share", "share", "lower", "C"},
	{"go.gc_cycles", "count", "lower", "R"},
	{"process.peak_rss_mb", "MB", "lower", "R"},
}

// perLayer lists the per-layer metric names in the order they are printed.
var perLayer []string

func init() {
	for _, m := range layerMetrics {
		perLayer = append(perLayer, m.name)
		units[m.name] = m.unit
	}
}

// span is one call into a public function (or a rep, or a probe), recorded
// by the harness from outside the program. Times are nanoseconds since the
// child started; Parent is 0 for a root.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
}

// tracer keeps spans in memory; the harness makes every traced call from one
// goroutine, so the open spans form a stack.
type tracer struct {
	t0       time.Time
	workload string
	rep      int
	spans    []span
	open     []int // indexes into spans
}

func (t *tracer) begin(name string) func() {
	s := span{ID: len(t.spans) + 1, Name: name, Start: time.Since(t.t0).Nanoseconds(), Workload: t.workload, Rep: t.rep}
	if n := len(t.open); n > 0 {
		s.Parent = t.spans[t.open[n-1]].ID
	}
	idx := len(t.spans)
	t.spans = append(t.spans, s)
	t.open = append(t.open, idx)
	return func() {
		t.spans[idx].End = time.Since(t.t0).Nanoseconds()
		t.open = t.open[:len(t.open)-1]
	}
}

// runTraced is the traced run: reps with a registry attached, a span around
// every public call and the CPU profile on, for half the budget; then the
// probes. It reports the per-layer metrics only -- end-to-end numbers always
// come from the untraced run -- but hands the suite the traced reps' values
// so it can state the tracing overhead.
func runTraced(ctx context.Context, w workload, c config, budget time.Duration) (outcome, detail, error) {
	tr := &tracer{t0: time.Now(), workload: w.name}
	var gcBefore runtime.MemStats
	runtime.ReadMemStats(&gcBefore)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return outcome{}, detail{}, fmt.Errorf("cpu profile: %w", err)
	}
	var regs []*resilient.MetricsRegistry
	reps, err := runReps(ctx, w, c.seed, c.reps, budget/2, func(rep int) observer {
		tr.rep = rep
		reg := resilient.NewMetricsRegistry()
		regs = append(regs, reg)
		return observer{reg: reg, span: tr.begin}
	})
	pprof.StopCPUProfile()
	if err != nil {
		return outcome{}, detail{}, err
	}
	var gcAfter runtime.MemStats
	runtime.ReadMemStats(&gcAfter)

	out, det := summarize(reps)
	out.Metrics = map[string]metricValue{}
	set := func(name string, v float64) { out.Metrics[name] = value(v, units[name]) }
	fail := func(name string, err error) { out.Metrics[name] = metricValue{Unit: units[name], Error: err.Error()} }

	for name, v := range reportMetrics(w, reps, regs) {
		set(name, v)
	}
	set("go.gc_cycles", float64(gcAfter.NumGC-gcBefore.NumGC)/float64(len(reps)))

	shares, err := cpuShares(prof.Bytes())
	for _, l := range cpuLayers {
		name := l + ".cpu_share"
		if err != nil {
			fail(name, err)
		} else {
			set(name, shares[l])
		}
	}

	tr.rep = 0
	endProbes := tr.begin("probes")
	for _, p := range probes {
		if !c.probes {
			break
		}
		end := tr.begin(p.names[0])
		vals, err := runProbe(ctx, p, c.scale)
		end()
		for i, name := range p.names {
			if err != nil {
				fail(name, err)
			} else {
				set(name, vals[i])
			}
		}
	}
	endProbes()

	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fail("process.peak_rss_mb", err)
	} else {
		set("process.peak_rss_mb", float64(ru.Maxrss)/1024) // Linux reports KiB
	}
	det.Spans = tr.spans
	return out, det, nil
}

// reportMetrics derives the R metrics from the traced reps: ratios of
// registry counters and report fields summed over reps, and per-rep means of
// the plain counts. A metric of a layer the workload does not run is 0.
func reportMetrics(w workload, reps []*repResult, regs []*resilient.MetricsRegistry) map[string]float64 {
	counter := map[string]float64{}
	for _, reg := range regs {
		for name, v := range reg.Snapshot().Counters {
			counter[name] += float64(v)
		}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m := map[string]float64{}
	var f reportFacts
	var late float64
	for _, r := range reps {
		f.add(r.facts)
		if w.rate > 0 {
			late += (r.facts.elapsed.Seconds() - float64(w.ops)/w.rate) * 1e3
		}
	}
	ops, slots := float64(f.ops), float64(f.slots)
	events, wall := float64(f.events), f.wall.Seconds()
	n := float64(len(reps))
	m["netxport.frames_per_op"] = ratio(counter["net.frames_sent"], ops)
	m["netxport.bytes_per_op"] = ratio(counter["net.bytes_sent"], ops)
	m["netxport.frames_per_flush"] = ratio(counter["net.frames_sent"], counter["net.flushes"])
	m["netxport.drops"] = (counter["net.mux_drops"] + counter["net.flush_frame_drops"] + counter["net.conn_evictions"]) / n
	m["livenet.msgs_per_slot"] = ratio(counter["livenet.messages_sent"], counter["log.slots"])
	m["log.ops_per_batch"] = ratio(counter["log.ops_committed"], counter["log.batches"])
	m["log.slots_per_s"] = ratio(slots, f.elapsed.Seconds())
	m["log.noop_slot_share"] = ratio(float64(f.noops), slots)
	m["log.commit_p99_ms"] = f.p99.Seconds() * 1e3 / n
	m["log.feed_late_ms"] = late / n
	m["runtime.events_per_s"] = ratio(events, wall)
	m["runtime.event_ns"] = ratio(wall*1e9, events)
	m["runtime.delivered_share"] = ratio(float64(f.delivered), float64(f.sent))
	m["malicious.phases_per_run"] = 0
	if w.protocol == resilient.ProtocolMalicious {
		m["malicious.phases_per_run"] = ratio(float64(f.phases), float64(f.runs))
	}
	return m
}
