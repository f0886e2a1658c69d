// Command consensus-sim runs a single consensus execution and reports the
// outcome. The -engine flag picks where it runs: the deterministic
// discrete-event simulator (default), a goroutine-per-process in-memory
// cluster, or a loopback TCP mesh. Fault plans (-crash), adversaries
// (-adversary), and link policies (-policy) mean the same thing on every
// engine; jittered live delivery is a policy (-engine mem -policy
// uniform:0:1 -unit 1ms).
//
// Usage:
//
//	consensus-sim -protocol failstop -n 7 -k 3 -inputs 0101011 -seed 1
//	consensus-sim -protocol malicious -n 10 -k 3 -adversary balancer -trace
//	consensus-sim -protocol failstop -n 9 -k 4 -crash "3:1:5,7:0:0" -trials 100
//	consensus-sim -protocol failstop -n 7 -k 3 -engine tcp -crash "5:1:3,6:0:0"
//	consensus-sim -protocol failstop -n 7 -k 3 -engine mem -policy drop:0.1,uniform:0.1:1
//	consensus-sim -protocol malicious -n 1000 -k 100 -broadcast sample
//	consensus-sim -protocol broadcast -n 10000 -k 1000 -broadcast sample -eps 1e-3
//	consensus-sim -protocol benor-shared -n 21 -k 10 -trials 100
//	consensus-sim -protocol benor-crash -coin shared -n 7 -k 3 -seed 2
//	consensus-sim -list-protocols
//	consensus-sim -engine tcp -saturate -n 13 -messages 500000
//	consensus-sim -log -engine tcp -n 7 -ops 4096 -batch 16 -pipeline 4
//	consensus-sim -log -engine tcp -rate 20000 -clients 256 -batch 32 -logcrash "2:5"
//
// With -engine tcp, -saturate floods the mesh with consensus-shaped frames
// (no protocol on top) and reports aggregate throughput.
//
// -log runs the replicated-log layer instead of a single decision: a
// workload of -ops operations is batched (-batch), committed
// through pipelined per-slot Figure-2 instances (-pipeline) multiplexed
// over one shared transport, and reported as ops/sec with commit-latency
// percentiles. -rate paces an open-loop arrival schedule (0 = unpaced),
// -clients sizes the simulated client population, and -logcrash schedules
// slot-boundary fail-stops ("id:slot" entries).
//
// With -trials > 1 it reports aggregate statistics over seeded runs instead
// of a single execution; -workers fans the trials across goroutines without
// changing any reported number (trial tr always uses seed+tr). Live engines
// run single executions only.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	goruntime "runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"resilient"
	"resilient/internal/stats"
	"resilient/internal/sweep"
	"resilient/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "consensus-sim:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("consensus-sim", flag.ContinueOnError)
	var (
		protoName   = fs.String("protocol", "failstop", "protocol: "+strings.Join(protocolNames(), " | "))
		listProtos  = fs.Bool("list-protocols", false, "print the protocol registry (name, aliases, model, bound, coin) and exit")
		coinName    = fs.String("coin", "auto", "coin scheme for randomized protocols: auto | local | shared")
		n           = fs.Int("n", 7, "number of processes")
		k           = fs.Int("k", -1, "fault parameter (default: the protocol's maximum for n)")
		inputsStr   = fs.String("inputs", "", "initial values as a 0/1 string of length n (default: alternating)")
		seed        = fs.Uint64("seed", 1, "base random seed")
		trials      = fs.Int("trials", 1, "number of seeded runs")
		workers     = fs.Int("workers", 0, "concurrent trial workers when -trials > 1 (0 = GOMAXPROCS); output is identical for every value")
		crashSpec   = fs.String("crash", "", "crash plan: comma-separated id:phase:afterSends entries")
		advSpec     = fs.String("adversary", "", "byzantine strategy on the k highest-numbered processes: silent | balancer | flipper | liar0 | liar1 | equivocator | double-echo | mute")
		showTrace   = fs.Bool("trace", false, "print the execution trace (single-trial runs only)")
		unsafe      = fs.Bool("unsafe", false, "skip the resilience-bound validation of (n, k)")
		schemeName  = fs.String("broadcast", "echo", "echo-broadcast primitive for the malicious and broadcast protocols: echo | sample")
		epsFlag     = fs.Float64("eps", 0, "per-acceptance error bound of -broadcast=sample (0 = default 1e-3)")
		asJSON      = fs.Bool("json", false, "emit the result as JSON (single-trial runs only)")
		metricsPath = fs.String("metrics-json", "", "write a key-sorted run-accounting snapshot to this file (aggregated over all trials)")
		pprofPrefix = fs.String("pprof", "", "write a CPU profile of the run to PREFIX.cpu and an allocation profile to PREFIX.allocs")
		engineName  = fs.String("engine", "sim", "execution engine: sim | mem | tcp")
		policySpec  = fs.String("policy", "", "link policy: comma-chained wrappers over a base, e.g. uniform:0.1:1 | exp:1 | const:1 | drop:0.1,uniform:0.1:1 | partition:2,const:1")
		unitFlag    = fs.Duration("unit", 0, "wall-clock length of one policy delay unit on live engines (default 1ms)")
		timeoutFlag = fs.Duration("timeout", 30*time.Second, "deadline for live-engine runs")
		saturate    = fs.Bool("saturate", false, "flood the TCP mesh with consensus-shaped frames and report throughput instead of running a protocol (engine tcp only)")
		messages    = fs.Int("messages", 200000, "total message budget in -saturate mode")
		payloadFlag = fs.Int("payload", 0, "payload bytes per message in -saturate mode")
		logMode     = fs.Bool("log", false, "run the replicated-log layer: batched, pipelined consensus slots over one shared transport")
		rateFlag    = fs.Float64("rate", 0, "open-loop arrival rate in ops/sec in -log mode (0 = unpaced)")
		clientsFlag = fs.Int("clients", 0, "simulated client population in -log mode (0 = default)")
		batchFlag   = fs.Int("batch", 0, "maximum operations per consensus slot in -log mode (0 = default)")
		pipeFlag    = fs.Int("pipeline", 0, "consensus slots in flight in -log mode (0 = default)")
		opsFlag     = fs.Int("ops", 0, "total operations in -log mode (0 = default)")
		opBytesFlag = fs.Int("opbytes", 0, "bytes per operation in -log mode (0 = default)")
		logCrashes  = fs.String("logcrash", "", "slot-boundary crash plan in -log mode: comma-separated id:slot entries")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *listProtos {
		printProtocolTable(os.Stdout, *n)
		return nil
	}

	proto, err := resilient.ParseProtocol(*protoName)
	if err != nil {
		return err
	}
	coinScheme, err := resilient.ParseCoinScheme(*coinName)
	if err != nil {
		return err
	}
	protocolSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "protocol" {
			protocolSet = true
		}
	})
	userK := *k
	if *k < 0 {
		*k = proto.MaxFaults(*n)
	}
	scheme, err := parseScheme(*schemeName)
	if err != nil {
		return err
	}
	if err := validateScale(proto, scheme, *n, *epsFlag); err != nil {
		return err
	}
	inputs, err := parseInputs(*inputsStr, *n)
	if err != nil {
		return err
	}
	crashes, err := parseCrashes(*crashSpec)
	if err != nil {
		return err
	}
	adversaries, err := parseAdversaries(*advSpec, *n, *k)
	if err != nil {
		return err
	}
	engine, err := resilient.ParseEngine(*engineName)
	if err != nil {
		return err
	}
	pol, err := parsePolicy(*policySpec)
	if err != nil {
		return err
	}

	if *pprofPrefix != "" {
		stop, perr := startProfiles(*pprofPrefix)
		if perr != nil {
			return perr
		}
		defer func() { // err is run's result, not a local
			if perr := stop(); err == nil {
				err = perr
			}
		}()
	}

	var reg *resilient.MetricsRegistry
	if *metricsPath != "" {
		reg = resilient.NewMetricsRegistry()
	}
	writeMetrics := func() error {
		if reg == nil {
			return nil
		}
		f, err := os.Create(*metricsPath)
		if err != nil {
			return err
		}
		defer f.Close()
		return resilient.WriteMetricsJSON(f, reg)
	}

	if *logMode {
		if *saturate {
			return errors.New("-log and -saturate are mutually exclusive")
		}
		logK := 0 // 0 = the slot protocol's bound for n
		if userK >= 0 {
			logK = userK
		}
		logProto := resilient.Protocol(0) // 0 = the log's default (Figure 2)
		if protocolSet {
			logProto = proto
		}
		lc, err := parseLogCrashes(*logCrashes)
		if err != nil {
			return err
		}
		ctx, cancel := context.WithTimeout(context.Background(), *timeoutFlag)
		defer cancel()
		rep, runErr := resilient.RunLogWorkload(ctx, resilient.LogWorkloadOptions{
			Log: resilient.LogOptions{
				Engine:   engine,
				Protocol: logProto,
				Coin:     coinScheme,
				N:        *n,
				K:        logK,
				Seed:     *seed,
				Batch:    *batchFlag,
				Pipeline: *pipeFlag,
				Crashes:  lc,
				Metrics:  reg,
			},
			Ops:     *opsFlag,
			Rate:    *rateFlag,
			Clients: *clientsFlag,
			OpBytes: *opBytesFlag,
		})
		if rep == nil {
			return runErr
		}
		if err := writeMetrics(); err != nil {
			return err
		}
		if *asJSON {
			if err := printLogJSON(*n, rep); err != nil {
				return err
			}
			return runErr
		}
		printLogReport(*n, *rateFlag, rep)
		return runErr
	}
	if *saturate {
		if engine != resilient.EngineTCP {
			return errors.New("-saturate requires -engine tcp")
		}
		ctx, cancel := context.WithTimeout(context.Background(), *timeoutFlag)
		defer cancel()
		rep, runErr := resilient.RunTCPSaturation(ctx, resilient.SaturationOptions{
			N:        *n,
			Messages: *messages,
			Payload:  *payloadFlag,
			Metrics:  reg,
		})
		if rep == nil {
			return runErr
		}
		if err := writeMetrics(); err != nil {
			return err
		}
		fmt.Printf("saturation  n=%d payload=%dB\n", *n, *payloadFlag)
		fmt.Printf("messages    %d\n", rep.Messages)
		fmt.Printf("elapsed     %v\n", rep.Elapsed.Round(time.Millisecond))
		fmt.Printf("throughput  %.0f msgs/s, %.1f MB/s\n", rep.MsgsPerSec, rep.MBPerSec)
		return runErr
	}

	if engine.Live() {
		if *trials > 1 {
			return fmt.Errorf("engine %v runs single executions; aggregate trials with -engine sim", engine)
		}
		if *showTrace {
			return errors.New("-trace is simulator-only")
		}
		ctx, cancel := context.WithTimeout(context.Background(), *timeoutFlag)
		defer cancel()
		out, runErr := resilient.RunScenario(ctx, engine, resilient.Scenario{
			Protocol:    proto,
			N:           *n,
			K:           *k,
			Inputs:      inputs,
			Seed:        *seed,
			Crashes:     crashes,
			Adversaries: adversaries,
			Policy:      pol,
			Unit:        *unitFlag,
			Broadcast:   scheme,
			Eps:         *epsFlag,
			Coin:        coinScheme,
			Unsafe:      *unsafe,
			Metrics:     reg,
		})
		if out == nil {
			return runErr
		}
		if err := writeMetrics(); err != nil {
			return err
		}
		if *asJSON {
			if err := printOutcomeJSON(proto, engine, *n, *k, out); err != nil {
				return err
			}
			return runErr
		}
		printOutcome(engine, out)
		return runErr
	}

	if *trials <= 1 {
		opts := resilient.SimOptions{
			Seed:        *seed,
			Crashes:     crashes,
			Adversaries: adversaries,
			Policy:      pol,
			Broadcast:   scheme,
			Eps:         *epsFlag,
			Coin:        coinScheme,
			Unsafe:      *unsafe,
			Metrics:     reg,
		}
		var buf *trace.Buffer
		if *showTrace {
			buf = trace.NewBuffer(0)
			opts.Trace = buf
		}
		res, err := resilient.Simulate(proto, *n, *k, inputs, opts)
		if err != nil {
			return err
		}
		if buf != nil {
			for _, e := range buf.Events() {
				fmt.Println(e)
			}
		}
		if err := writeMetrics(); err != nil {
			return err
		}
		if *asJSON {
			return printJSON(proto, *n, *k, res)
		}
		printResult(res)
		return nil
	}

	type trialOut struct {
		agree, decided bool
		stalled        resilient.StallReason
		phases, msgs   float64
	}
	results, err := sweep.Run(*trials, *workers, func(tr int) (trialOut, error) {
		res, err := resilient.Simulate(proto, *n, *k, inputs, resilient.SimOptions{
			Seed:        *seed + uint64(tr),
			Crashes:     crashes,
			Adversaries: adversaries,
			Policy:      pol,
			Broadcast:   scheme,
			Eps:         *epsFlag,
			Coin:        coinScheme,
			Unsafe:      *unsafe,
			Metrics:     reg,
		})
		if err != nil {
			return trialOut{}, err
		}
		maxPh := 0
		for _, ph := range res.DecisionPhase {
			if int(ph) > maxPh {
				maxPh = int(ph)
			}
		}
		return trialOut{
			agree:   res.Agreement,
			decided: res.AllDecided,
			stalled: res.Stalled,
			phases:  float64(maxPh),
			msgs:    float64(res.MessagesSent),
		}, nil
	})
	if err != nil {
		return err
	}
	var phases, msgs stats.Accumulator
	agree, decided := 0, 0
	stalls := map[resilient.StallReason]int{}
	for _, r := range results {
		if r.agree {
			agree++
		}
		if r.decided {
			decided++
			// A trial in which not everyone decided has no phase count: its
			// 0 (or its few deciders' phase) would pull the mean down.
			phases.Add(r.phases)
		}
		if r.stalled != resilient.NotStalled {
			stalls[r.stalled]++
		}
		msgs.Add(r.msgs)
	}
	fmt.Printf("protocol   %v  n=%d k=%d  trials=%d\n", proto, *n, *k, *trials)
	fmt.Printf("terminated %d/%d\n", decided, *trials)
	if len(stalls) > 0 {
		fmt.Printf("stalled    %s\n", stallSummary(stalls, *trials))
	}
	fmt.Printf("agreement  %d/%d\n", agree, *trials)
	if decided > 0 {
		fmt.Printf("phases     %s\n", phases.Summarize())
	} else {
		fmt.Println("phases     none (no trial terminated)")
	}
	fmt.Printf("messages   %s\n", msgs.Summarize())
	return writeMetrics()
}

// stallSummary renders the stalled trials of an aggregate run as
// "N/M (reason)", or with a count per reason when the stalls had more than
// one cause: "N/M (reason a 2, reason b 1)".
func stallSummary(stalls map[resilient.StallReason]int, trials int) string {
	reasons := make([]resilient.StallReason, 0, len(stalls))
	total := 0
	for r, c := range stalls {
		reasons = append(reasons, r)
		total += c
	}
	sort.Slice(reasons, func(i, j int) bool { return reasons[i] < reasons[j] })
	parts := make([]string, len(reasons))
	for i, r := range reasons {
		parts[i] = r.String()
		if len(reasons) > 1 {
			parts[i] += " " + strconv.Itoa(stalls[r])
		}
	}
	return fmt.Sprintf("%d/%d (%s)", total, trials, strings.Join(parts, ", "))
}

// startProfiles begins a CPU profile in prefix.cpu and returns the function
// that ends it and writes every allocation since process start to
// prefix.allocs.
func startProfiles(prefix string) (stop func() error, err error) {
	cpu, err := os.Create(prefix + ".cpu")
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(cpu); err != nil {
		cpu.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := cpu.Close(); err != nil {
			return err
		}
		allocs, err := os.Create(prefix + ".allocs")
		if err != nil {
			return err
		}
		goruntime.GC() // the profile counts what the last collection has seen
		if err := pprof.Lookup("allocs").WriteTo(allocs, 0); err != nil {
			allocs.Close()
			return err
		}
		return allocs.Close()
	}, nil
}

// protocolNames lists every registered protocol's primary spelling for the
// -protocol usage string.
func protocolNames() []string {
	var names []string
	for _, p := range resilient.Protocols() {
		if as := p.Aliases(); len(as) > 0 {
			names = append(names, as[0])
		} else {
			names = append(names, p.String())
		}
	}
	return names
}

// printProtocolTable renders the registry for -list-protocols.
func printProtocolTable(w io.Writer, n int) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "NAME\tALIASES\tMODEL\tBOUND\tMAX K (n="+strconv.Itoa(n)+")\tCOIN")
	for _, p := range resilient.Protocols() {
		coin := "-"
		if p.NeedsCoin() {
			coin = p.DefaultCoin().String()
		}
		fmt.Fprintf(tw, "%v\t%s\t%v\t%s\t%d\t%s\n",
			p, strings.Join(p.Aliases(), ", "), p.Model(), p.Bound(), p.MaxFaults(n), coin)
	}
	tw.Flush()
}

func parseScheme(name string) (resilient.BroadcastScheme, error) {
	switch strings.ToLower(name) {
	case "echo":
		return resilient.SchemeEcho, nil
	case "sample":
		return resilient.SchemeSample, nil
	default:
		return 0, fmt.Errorf("unknown broadcast scheme %q (want echo or sample)", name)
	}
}

// Full-quorum scale ceilings: past these, the echo scheme's message count
// exceeds the simulator's default event budget (Figure-2 consensus costs
// ~n³ echo deliveries per phase, a single broadcast ~n²), so the run would
// stall on EventBudget after minutes of work. Fail fast and point at the
// sampled scheme instead.
const (
	maxEchoConsensusN = 250
	maxEchoBroadcastN = 4000
)

// validateScale cross-checks n, the protocol, and the broadcast scheme
// before any engine starts.
func validateScale(proto resilient.Protocol, scheme resilient.BroadcastScheme, n int, eps float64) error {
	if !proto.NeedsDirectory() {
		if scheme != resilient.SchemeEcho {
			return fmt.Errorf("-broadcast=%v applies to the malicious and broadcast protocols only", scheme)
		}
		if eps != 0 {
			return fmt.Errorf("-eps applies to -broadcast=sample only")
		}
		return nil
	}
	if scheme == resilient.SchemeEcho {
		if eps != 0 {
			return fmt.Errorf("-eps applies to -broadcast=sample only")
		}
		limit := maxEchoConsensusN
		if proto == resilient.ProtocolBroadcast {
			limit = maxEchoBroadcastN
		}
		if n > limit {
			return fmt.Errorf("n=%d exceeds the full-quorum echo scheme's practical ceiling of %d for %v; rerun with -broadcast=sample",
				n, limit, proto)
		}
	}
	return nil
}

func parseInputs(s string, n int) ([]resilient.Value, error) {
	inputs := make([]resilient.Value, n)
	if s == "" {
		for i := range inputs {
			inputs[i] = resilient.Value(i % 2)
		}
		return inputs, nil
	}
	if len(s) != n {
		return nil, fmt.Errorf("inputs length %d, want %d", len(s), n)
	}
	for i, c := range s {
		switch c {
		case '0':
			inputs[i] = resilient.V0
		case '1':
			inputs[i] = resilient.V1
		default:
			return nil, fmt.Errorf("inputs must be 0/1, got %q", c)
		}
	}
	return inputs, nil
}

func parseCrashes(spec string) (map[resilient.ID]resilient.Crash, error) {
	if spec == "" {
		return nil, nil
	}
	plan := make(map[resilient.ID]resilient.Crash)
	for _, entry := range strings.Split(spec, ",") {
		parts := strings.Split(entry, ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("crash entry %q: want id:phase:afterSends", entry)
		}
		vals := make([]int, 3)
		for i, p := range parts {
			v, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil {
				return nil, fmt.Errorf("crash entry %q: %w", entry, err)
			}
			vals[i] = v
		}
		id := resilient.ID(vals[0])
		plan[id] = resilient.Crash{
			Process:    id,
			Phase:      resilient.Phase(vals[1]),
			AfterSends: vals[2],
		}
	}
	return plan, nil
}

func parseLogCrashes(spec string) ([]resilient.LogCrash, error) {
	if spec == "" {
		return nil, nil
	}
	var plan []resilient.LogCrash
	for _, entry := range strings.Split(spec, ",") {
		parts := strings.Split(entry, ":")
		if len(parts) != 2 {
			return nil, fmt.Errorf("log crash entry %q: want id:slot", entry)
		}
		id, err := strconv.Atoi(strings.TrimSpace(parts[0]))
		if err != nil {
			return nil, fmt.Errorf("log crash entry %q: %w", entry, err)
		}
		slot, err := strconv.Atoi(strings.TrimSpace(parts[1]))
		if err != nil {
			return nil, fmt.Errorf("log crash entry %q: %w", entry, err)
		}
		plan = append(plan, resilient.LogCrash{Process: resilient.ID(id), Slot: slot})
	}
	return plan, nil
}

func printLogReport(n int, rate float64, rep *resilient.LogReport) {
	pacing := "unpaced"
	if rate > 0 {
		pacing = fmt.Sprintf("%.0f ops/s offered", rate)
	}
	fmt.Printf("log         engine=%v n=%d (%s)\n", rep.Engine, n, pacing)
	fmt.Printf("ops         %d committed in %d batches\n", rep.Ops, rep.Batches)
	fmt.Printf("slots       %d (%d no-op)\n", rep.Slots, rep.NoopSlots)
	fmt.Printf("elapsed     %v\n", rep.Elapsed.Round(time.Millisecond))
	fmt.Printf("throughput  %.0f ops/s committed\n", rep.OpsPerSec)
	if rep.Engine.Live() {
		fmt.Printf("latency     p50=%v p95=%v p99=%v\n",
			rep.P50.Round(time.Microsecond), rep.P95.Round(time.Microsecond), rep.P99.Round(time.Microsecond))
	} else {
		fmt.Printf("sim time    %.3f units\n", rep.SimTime)
	}
}

// logJSON is the machine-readable -log summary; the CI bench lane snapshots
// it.
type logJSON struct {
	Engine     string  `json:"engine"`
	N          int     `json:"n"`
	Ops        int     `json:"ops"`
	Slots      int     `json:"slots"`
	NoopSlots  int     `json:"noopSlots,omitempty"`
	Batches    int     `json:"batches"`
	ElapsedSec float64 `json:"elapsedSeconds"`
	OpsPerSec  float64 `json:"opsPerSec"`
	P50Sec     float64 `json:"p50Seconds,omitempty"`
	P95Sec     float64 `json:"p95Seconds,omitempty"`
	P99Sec     float64 `json:"p99Seconds,omitempty"`
	SimTime    float64 `json:"simTime,omitempty"`
}

func printLogJSON(n int, rep *resilient.LogReport) error {
	out := logJSON{
		Engine:     rep.Engine.String(),
		N:          n,
		Ops:        rep.Ops,
		Slots:      rep.Slots,
		NoopSlots:  rep.NoopSlots,
		Batches:    rep.Batches,
		ElapsedSec: rep.Elapsed.Seconds(),
		OpsPerSec:  rep.OpsPerSec,
		P50Sec:     rep.P50.Seconds(),
		P95Sec:     rep.P95.Seconds(),
		P99Sec:     rep.P99.Seconds(),
		SimTime:    rep.SimTime,
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func parseAdversaries(spec string, n, k int) (map[resilient.ID]resilient.Strategy, error) {
	if spec == "" {
		return nil, nil
	}
	var strat resilient.Strategy
	switch strings.ToLower(spec) {
	case "silent":
		strat = resilient.StrategySilent
	case "balancer":
		strat = resilient.StrategyBalancer
	case "flipper":
		strat = resilient.StrategyFlipper
	case "liar0":
		strat = resilient.StrategyLiar0
	case "liar1":
		strat = resilient.StrategyLiar1
	case "equivocator":
		strat = resilient.StrategyEquivocator
	case "double-echo":
		strat = resilient.StrategyDoubleEcho
	case "mute":
		strat = resilient.StrategyMute
	default:
		return nil, fmt.Errorf("unknown strategy %q", spec)
	}
	if k < 1 {
		return nil, errors.New("adversaries need k >= 1")
	}
	adv := make(map[resilient.ID]resilient.Strategy, k)
	for i := 0; i < k; i++ {
		adv[resilient.ID(n-1-i)] = strat
	}
	return adv, nil
}

// parsePolicy builds a link policy from a comma-chained spec: wrappers
// (drop:P, partition:BOUNDARY) read left to right around a base delay
// policy (uniform:MIN:MAX, exp:MEAN, const:D, or default), which must come
// last. Example: "drop:0.1,uniform:0.1:1" loses 10% of messages and delays
// the rest uniformly.
func parsePolicy(spec string) (resilient.LinkPolicy, error) {
	if spec == "" {
		return nil, nil
	}
	parts := strings.Split(spec, ",")
	var pol resilient.LinkPolicy
	for i := len(parts) - 1; i >= 0; i-- {
		entry := strings.TrimSpace(parts[i])
		fields := strings.Split(entry, ":")
		nums := make([]float64, len(fields)-1)
		for j, f := range fields[1:] {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return nil, fmt.Errorf("policy entry %q: %w", entry, err)
			}
			nums[j] = v
		}
		base := func() error {
			if pol != nil {
				return fmt.Errorf("policy entry %q: base delay policy must be the last entry", entry)
			}
			return nil
		}
		switch fields[0] {
		case "default":
			if err := base(); err != nil {
				return nil, err
			}
			pol = resilient.PolicyFromScheduler(nil)
		case "uniform":
			if len(nums) != 2 {
				return nil, fmt.Errorf("policy entry %q: want uniform:MIN:MAX", entry)
			}
			if err := base(); err != nil {
				return nil, err
			}
			pol = resilient.PolicyFromScheduler(resilient.UniformDelay{Min: nums[0], Max: nums[1]})
		case "exp":
			if len(nums) != 1 {
				return nil, fmt.Errorf("policy entry %q: want exp:MEAN", entry)
			}
			if err := base(); err != nil {
				return nil, err
			}
			pol = resilient.PolicyFromScheduler(resilient.ExponentialDelay{Mean: nums[0]})
		case "const":
			if len(nums) != 1 {
				return nil, fmt.Errorf("policy entry %q: want const:D", entry)
			}
			if err := base(); err != nil {
				return nil, err
			}
			pol = resilient.PolicyFromScheduler(resilient.ConstantDelay{D: nums[0]})
		case "drop":
			if len(nums) != 1 || nums[0] < 0 || nums[0] > 1 {
				return nil, fmt.Errorf("policy entry %q: want drop:P with P in [0,1]", entry)
			}
			pol = resilient.DropPolicy{P: nums[0], Base: pol}
		case "partition":
			if len(nums) != 1 || nums[0] != float64(int(nums[0])) {
				return nil, fmt.Errorf("policy entry %q: want partition:BOUNDARY", entry)
			}
			pol = resilient.PartitionPolicy{
				GroupOf: resilient.HalvesPartition(resilient.ID(int(nums[0]))),
				Base:    pol,
			}
		default:
			return nil, fmt.Errorf("unknown policy entry %q", entry)
		}
	}
	return pol, nil
}

func printOutcome(engine resilient.Engine, out *resilient.Outcome) {
	fmt.Printf("engine       %v\n", engine)
	fmt.Printf("all decided  %v\n", out.AllDecided)
	fmt.Printf("agreement    %v\n", out.Agreement)
	if len(out.Decisions) > 0 {
		fmt.Printf("value        %d\n", out.Value)
	}
	fmt.Printf("elapsed      %v\n", out.Elapsed.Round(time.Microsecond))
	if len(out.Crashed) > 0 {
		fmt.Printf("crashed      %v\n", out.Crashed)
	}
	ids := make([]int, 0, len(out.Decisions))
	for id := range out.Decisions {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	for _, id := range ids {
		fmt.Printf("  p%-3d decided %d in phase %d\n",
			id, out.Decisions[resilient.ID(id)], out.DecisionPhase[resilient.ID(id)])
	}
}

// outcomeJSON is the machine-readable live-run summary.
type outcomeJSON struct {
	Protocol   string            `json:"protocol"`
	Engine     string            `json:"engine"`
	N          int               `json:"n"`
	K          int               `json:"k"`
	AllDecided bool              `json:"allDecided"`
	Agreement  bool              `json:"agreement"`
	Value      *int              `json:"value,omitempty"`
	ElapsedSec float64           `json:"elapsedSeconds"`
	Crashed    []int             `json:"crashed,omitempty"`
	Decisions  []outcomeDecision `json:"decisions"`
}

type outcomeDecision struct {
	Process int `json:"process"`
	Value   int `json:"value"`
	Phase   int `json:"phase"`
}

func printOutcomeJSON(proto resilient.Protocol, engine resilient.Engine, n, k int, res *resilient.Outcome) error {
	out := outcomeJSON{
		Protocol:   proto.String(),
		Engine:     engine.String(),
		N:          n,
		K:          k,
		AllDecided: res.AllDecided,
		Agreement:  res.Agreement,
		ElapsedSec: res.Elapsed.Seconds(),
	}
	if len(res.Decisions) > 0 {
		v := int(res.Value)
		out.Value = &v
	}
	for _, id := range res.Crashed {
		out.Crashed = append(out.Crashed, int(id))
	}
	for id, v := range res.Decisions {
		out.Decisions = append(out.Decisions, outcomeDecision{
			Process: int(id),
			Value:   int(v),
			Phase:   int(res.DecisionPhase[id]),
		})
	}
	sort.Slice(out.Decisions, func(i, j int) bool {
		return out.Decisions[i].Process < out.Decisions[j].Process
	})
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// jsonResult is the machine-readable single-run summary.
type jsonResult struct {
	Protocol   string         `json:"protocol"`
	N          int            `json:"n"`
	K          int            `json:"k"`
	AllDecided bool           `json:"allDecided"`
	Agreement  bool           `json:"agreement"`
	Value      *int           `json:"value,omitempty"`
	Stalled    string         `json:"stalled,omitempty"`
	Messages   int            `json:"messagesSent"`
	Delivered  int            `json:"messagesDelivered"`
	Events     int            `json:"events"`
	SimTime    float64        `json:"simTime"`
	MaxPhase   int            `json:"maxPhase"`
	Crashed    []int          `json:"crashed,omitempty"`
	Decisions  []jsonDecision `json:"decisions"`
}

type jsonDecision struct {
	Process int     `json:"process"`
	Value   int     `json:"value"`
	Phase   int     `json:"phase"`
	Time    float64 `json:"time"`
}

func printJSON(proto resilient.Protocol, n, k int, res *resilient.Result) error {
	out := jsonResult{
		Protocol:   proto.String(),
		N:          n,
		K:          k,
		AllDecided: res.AllDecided,
		Agreement:  res.Agreement,
		Messages:   res.MessagesSent,
		Delivered:  res.MessagesDelivered,
		Events:     res.Events,
		SimTime:    res.SimTime,
		MaxPhase:   int(res.MaxPhase),
	}
	if res.DecidedCount() > 0 {
		v := int(res.Value)
		out.Value = &v
	}
	if res.Stalled != resilient.NotStalled {
		out.Stalled = res.Stalled.String()
	}
	for _, id := range res.Crashed {
		out.Crashed = append(out.Crashed, int(id))
	}
	for id, v := range res.Decisions {
		out.Decisions = append(out.Decisions, jsonDecision{
			Process: int(id),
			Value:   int(v),
			Phase:   int(res.DecisionPhase[id]),
			Time:    res.DecisionTime[id],
		})
	}
	sort.Slice(out.Decisions, func(i, j int) bool {
		return out.Decisions[i].Process < out.Decisions[j].Process
	})
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func printResult(res *resilient.Result) {
	fmt.Printf("all decided  %v\n", res.AllDecided)
	fmt.Printf("agreement    %v\n", res.Agreement)
	if res.DecidedCount() > 0 {
		fmt.Printf("value        %d\n", res.Value)
	}
	if res.Stalled != resilient.NotStalled {
		fmt.Printf("stalled      %v\n", res.Stalled)
	}
	fmt.Printf("messages     %d sent, %d delivered\n", res.MessagesSent, res.MessagesDelivered)
	fmt.Printf("events       %d\n", res.Events)
	fmt.Printf("sim time     %.3f\n", res.SimTime)
	fmt.Printf("max phase    %d\n", res.MaxPhase)
	if len(res.Crashed) > 0 {
		fmt.Printf("crashed      %v\n", res.Crashed)
	}
	for id, v := range res.Decisions {
		fmt.Printf("  p%-3d decided %d in phase %d at t=%.3f\n",
			id, v, res.DecisionPhase[id], res.DecisionTime[id])
	}
}
