// Command consensus-sim parses its flags into one run and reports the
// outcome. A single-instance run is one Scenario; the -engine flag picks
// where it runs: the deterministic discrete-event simulator (default), a
// goroutine-per-process in-memory cluster, or a loopback TCP mesh. Fault
// plans (-crash), adversaries (-adversary), and link policies (-policy) mean
// the same thing on every engine; jittered live delivery is a policy
// (-engine mem -policy uniform:0:1 -unit 1ms).
//
// Usage:
//
//	consensus-sim -protocol failstop -n 7 -k 3 -inputs 0101011 -seed 1
//	consensus-sim -protocol malicious -n 10 -k 3 -adversary balancer -trace
//	consensus-sim -protocol failstop -n 9 -k 4 -crash "3:1:5,7:0:0" -trials 100
//	consensus-sim -protocol failstop -n 7 -k 3 -engine tcp -crash "5:1:3,6:0:0"
//	consensus-sim -protocol failstop -n 7 -k 3 -engine mem -policy drop:0.1,uniform:0.1:1
//	consensus-sim -protocol malicious -n 300 -k 30 -broadcast sample
//	consensus-sim -protocol broadcast -n 10000 -k 1000 -broadcast sample -eps 1e-3
//	consensus-sim -protocol benor-shared -n 21 -k 10 -trials 100
//	consensus-sim -protocol benor-crash -coin shared -n 7 -k 3 -seed 2
//	consensus-sim -list-protocols
//	consensus-sim -log -engine tcp -n 7 -ops 4096 -batch 16 -pipeline 4
//	consensus-sim -log -engine tcp -rate 20000 -batch 32 -logcrash "2:5"
//
// With -trials > 1 the simulator reports aggregate statistics over seeded
// runs instead of a single execution; -workers fans the trials across
// goroutines without changing any reported number (trial tr always uses
// seed+tr). Live engines run single untraced executions only.
//
// -log runs the replicated-log layer instead of a single decision: a
// workload of -ops operations is batched (-batch), committed through
// pipelined per-slot Figure-2 instances (-pipeline) multiplexed over one
// shared transport, and reported as ops/sec with commit-latency percentiles.
// -rate paces an open-loop arrival schedule (0 = unpaced), and -logcrash
// schedules slot-boundary fail-stops ("id:slot" entries). A flag that only
// the other mode reads (-crash with -log, -rate without it) is an error.
package main

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	goruntime "runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"resilient"
	"resilient/internal/mc"
	"resilient/internal/sweep"
	"resilient/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "consensus-sim:", err)
		os.Exit(1)
	}
}

// logFlags are the flags only -log runs read, instanceFlags those only
// single-instance runs read.
var (
	logFlags      = []string{"rate", "batch", "pipeline", "ops", "opbytes", "logcrash"}
	instanceFlags = []string{"inputs", "trials", "workers", "crash", "adversary", "trace", "unsafe", "broadcast", "eps", "policy", "unit"}
)

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
		advSpec     = fs.String("adversary", "", "byzantine strategy on the k highest-numbered processes: "+strings.Join(names(resilient.StrategySilent, resilient.StrategyMute), " | "))
		showTrace   = fs.Bool("trace", false, "print the execution trace (single-trial runs only)")
		unsafe      = fs.Bool("unsafe", false, "skip the resilience-bound validation of (n, k)")
		schemeName  = fs.String("broadcast", "echo", "echo-broadcast primitive for the malicious and broadcast protocols: "+strings.Join(names(resilient.SchemeEcho, resilient.SchemeSample), " | "))
		epsFlag     = fs.Float64("eps", 0, "per-acceptance error bound of -broadcast=sample (0 = default 1e-3)")
		asJSON      = fs.Bool("json", false, "emit the result as JSON (single-trial runs only)")
		metricsPath = fs.String("metrics-json", "", "write a key-sorted run-accounting snapshot to this file (aggregated over all trials)")
		pprofPrefix = fs.String("pprof", "", "write a CPU profile of the run to PREFIX.cpu and an allocation profile to PREFIX.allocs")
		engineName  = fs.String("engine", "sim", "execution engine: sim | mem | tcp")
		policySpec  = fs.String("policy", "", "link policy: comma-chained wrappers over a base, e.g. uniform:0.1:1 | exp:1 | const:1 | drop:0.1,uniform:0.1:1 | partition:2,const:1")
		unitFlag    = fs.Duration("unit", 0, "wall-clock length of one policy delay unit on live engines (default 1ms)")
		timeoutFlag = fs.Duration("timeout", 30*time.Second, "deadline for live-engine runs")
		logMode     = fs.Bool("log", false, "run the replicated-log layer: batched, pipelined consensus slots over one shared transport")
		rateFlag    = fs.Float64("rate", 0, "open-loop arrival rate in ops/sec in -log mode (0 = unpaced)")
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
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	ignored, mode := logFlags, "a single-instance run (it needs -log)"
	if *logMode {
		ignored, mode = instanceFlags, "-log"
	}
	for _, name := range ignored {
		if set[name] {
			return fmt.Errorf("-%s does not apply to %s", name, mode)
		}
	}

	proto, perr := resilient.ParseProtocol(*protoName)
	coinScheme, cerr := resilient.ParseCoinScheme(*coinName)
	engine, eerr := resilient.ParseEngine(*engineName)
	if err := cmp.Or(perr, cerr, eerr); err != nil {
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
	ctx, cancel := context.WithTimeout(context.Background(), *timeoutFlag)
	defer cancel()

	if *logMode {
		logProto := resilient.Protocol(0) // 0 = the log's default (Figure 2)
		if set["protocol"] {
			logProto = proto
		}
		lc, err := parseLogCrashes(*logCrashes)
		if err != nil {
			return err
		}
		rep, runErr := resilient.RunLogWorkload(ctx, resilient.LogWorkloadOptions{
			Log: resilient.LogOptions{
				Engine: engine, Protocol: logProto, Coin: coinScheme,
				N: *n, K: max(*k, 0), // K 0 = the slot protocol's bound for n
				Seed: *seed, Batch: *batchFlag, Pipeline: *pipeFlag, Crashes: lc, Metrics: reg,
			},
			Ops: *opsFlag, Rate: *rateFlag, OpBytes: *opBytesFlag,
		})
		if rep == nil {
			return runErr
		}
		if err := writeMetrics(); err != nil {
			return err
		}
		if *asJSON {
			return cmp.Or(printLogJSON(*n, rep), runErr)
		}
		printLogReport(*n, *rateFlag, rep)
		return runErr
	}

	if *k < 0 {
		*k = proto.MaxFaults(*n)
	}
	sc := resilient.Scenario{Protocol: proto, N: *n, K: *k, Seed: *seed, Coin: coinScheme,
		Eps: *epsFlag, Unit: *unitFlag, Unsafe: *unsafe, Metrics: reg}
	if sc.Broadcast, err = parseScheme(*schemeName); err != nil {
		return err
	}
	if err := checkEchoCeiling(proto, sc.Broadcast, *n); err != nil {
		return err
	}
	if sc.Inputs, err = parseInputs(*inputsStr, *n); err != nil {
		return err
	}
	if sc.Crashes, err = parseCrashes(*crashSpec); err != nil {
		return err
	}
	if sc.Adversaries, err = parseAdversaries(*advSpec, *n, *k); err != nil {
		return err
	}
	if sc.Policy, err = parsePolicy(*policySpec); err != nil {
		return err
	}
	report := func(out *resilient.Outcome) error {
		if err := writeMetrics(); err != nil {
			return err
		}
		if *asJSON {
			return printOutcomeJSON(&sc, out)
		}
		printOutcome(out)
		return nil
	}

	if engine.Live() {
		if *trials > 1 || *showTrace {
			return fmt.Errorf("engine %v runs one untraced execution; use -engine sim for -trials and -trace", engine)
		}
		out, runErr := resilient.RunScenario(ctx, engine, sc)
		if out == nil {
			return runErr
		}
		return cmp.Or(report(out), runErr)
	}

	// The simulator: the scenario as Simulate's options, run once per trial.
	count := max(*trials, 1)
	opts := resilient.SimOptions{Crashes: sc.Crashes, Adversaries: sc.Adversaries, Policy: sc.Policy,
		Broadcast: sc.Broadcast, Eps: sc.Eps, Coin: sc.Coin, Unsafe: sc.Unsafe, Metrics: sc.Metrics}
	buf := trace.NewBuffer(0) // stays empty unless -trace hands it to the run
	if *showTrace && count == 1 {
		opts.Trace = buf
	}
	var single *resilient.Outcome // the whole outcome of a one-trial run
	var t mc.Tally
	err = sweep.Fold(count, *workers, func(tr int) (resilient.Outcome, error) {
		trialOpts := opts
		trialOpts.Seed = sc.Seed + uint64(tr)
		res, err := resilient.Simulate(sc.Protocol, sc.N, sc.K, sc.Inputs, trialOpts)
		if err != nil {
			return resilient.Outcome{}, err
		}
		out := sc.SimOutcome(res)
		if count == 1 {
			single = out
		}
		trial := *out
		trial.Sim = nil // the tally keeps no trial's whole Result
		return trial, nil
	}, t.Add)
	if err != nil {
		if count == 1 {
			err = errors.Unwrap(err) // the simulator's own words, without the job index
		}
		return err
	}
	if count == 1 {
		for _, e := range buf.Events() {
			fmt.Println(e)
		}
		return report(single)
	}

	// A trial in which not everyone decided has no phase count: the tally
	// folds phases over the terminated trials only.
	fmt.Printf("protocol   %v  n=%d k=%d  trials=%d\n", proto, *n, *k, count)
	fmt.Printf("terminated %d/%d\n", t.Terminated, count)
	if len(t.Stalls) > 0 {
		fmt.Printf("stalled    %s\n", stallSummary(t.Stalls, count))
	}
	fmt.Printf("agreement  %d/%d\n", t.Agreed, count)
	if t.Terminated > 0 {
		fmt.Printf("phases     %s\n", t.Phases.Summarize())
	} else {
		fmt.Println("phases     none (no trial terminated)")
	}
	fmt.Printf("messages   %s\n", t.Messages.Summarize())
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
	slices.Sort(reasons)
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

// named is an enumeration whose values first..last all have a String name.
type named interface {
	~int
	fmt.Stringer
}

// names lists the String names of first..last.
func names[T named](first, last T) []string {
	var out []string
	for v := first; v <= last; v++ {
		out = append(out, v.String())
	}
	return out
}

// parseName resolves name, in any case, to the value of first..last whose
// String it is.
func parseName[T named](kind, name string, first, last T) (T, error) {
	all := names(first, last)
	for i, s := range all {
		if strings.EqualFold(name, s) {
			return first + T(i), nil
		}
	}
	return 0, fmt.Errorf("unknown %s %q (want %s or %s)",
		kind, name, strings.Join(all[:len(all)-1], ", "), all[len(all)-1])
}

func parseScheme(name string) (resilient.BroadcastScheme, error) {
	return parseName("broadcast scheme", name, resilient.SchemeEcho, resilient.SchemeSample)
}

// Full-quorum scale ceilings: past these, the echo scheme's message count
// exceeds the simulator's default event budget (Figure-2 consensus costs
// ~n³ echo deliveries per phase, a single broadcast ~n²), so the run would
// stall on EventBudget after minutes of work. Fail fast and point at the
// sampled scheme instead. This is the CLI's policy for its default budget;
// the library runs any n (Simulate callers may raise MaxEvents).
const (
	maxEchoConsensusN = 250
	maxEchoBroadcastN = 4000
)

// checkEchoCeiling rejects a full-quorum echo run past its ceiling.
func checkEchoCeiling(proto resilient.Protocol, scheme resilient.BroadcastScheme, n int) error {
	if !proto.NeedsDirectory() || scheme != resilient.SchemeEcho {
		return nil
	}
	limit := maxEchoConsensusN
	if proto == resilient.ProtocolBroadcast {
		limit = maxEchoBroadcastN
	}
	if n > limit {
		return fmt.Errorf("n=%d exceeds the full-quorum echo scheme's practical ceiling of %d for %v; rerun with -broadcast=sample",
			n, limit, proto)
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
		if c != '0' && c != '1' {
			return nil, fmt.Errorf("inputs must be 0/1, got %q", c)
		}
		inputs[i] = resilient.Value(c - '0')
	}
	return inputs, nil
}

// parseTuples reads a comma-separated list of colon-separated integer
// tuples shaped like form ("id:slot"); what names an entry in errors.
func parseTuples(spec, what, form string) ([][]int, error) {
	if spec == "" {
		return nil, nil
	}
	arity := strings.Count(form, ":") + 1
	var tuples [][]int
	for _, entry := range strings.Split(spec, ",") {
		parts := strings.Split(entry, ":")
		if len(parts) != arity {
			return nil, fmt.Errorf("%s entry %q: want %s", what, entry, form)
		}
		vals := make([]int, arity)
		for i, p := range parts {
			v, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil {
				return nil, fmt.Errorf("%s entry %q: %w", what, entry, err)
			}
			vals[i] = v
		}
		tuples = append(tuples, vals)
	}
	return tuples, nil
}

func parseCrashes(spec string) (map[resilient.ID]resilient.Crash, error) {
	tuples, err := parseTuples(spec, "crash", "id:phase:afterSends")
	if len(tuples) == 0 {
		return nil, err
	}
	plan := make(map[resilient.ID]resilient.Crash, len(tuples))
	for _, t := range tuples {
		id := resilient.ID(t[0])
		plan[id] = resilient.Crash{Process: id, Phase: resilient.Phase(t[1]), AfterSends: t[2]}
	}
	return plan, nil
}

func parseLogCrashes(spec string) ([]resilient.LogCrash, error) {
	tuples, err := parseTuples(spec, "log crash", "id:slot")
	var plan []resilient.LogCrash
	for _, t := range tuples {
		plan = append(plan, resilient.LogCrash{Process: resilient.ID(t[0]), Slot: t[1]})
	}
	return plan, err
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

// logJSON is the machine-readable -log summary.
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
		Engine: rep.Engine.String(), N: n,
		Ops: rep.Ops, Slots: rep.Slots, NoopSlots: rep.NoopSlots, Batches: rep.Batches,
		ElapsedSec: rep.Elapsed.Seconds(), OpsPerSec: rep.OpsPerSec,
		P50Sec: rep.P50.Seconds(), P95Sec: rep.P95.Seconds(), P99Sec: rep.P99.Seconds(),
		SimTime: rep.SimTime,
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func parseAdversaries(spec string, n, k int) (map[resilient.ID]resilient.Strategy, error) {
	if spec == "" {
		return nil, nil
	}
	strat, err := parseName("strategy", spec, resilient.StrategySilent, resilient.StrategyMute)
	if err != nil {
		return nil, err
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
		inner := pol // what this entry wraps; a base delay policy wraps nothing
		switch fields[0] {
		case "default":
			pol = resilient.UniformDelay{Min: 0.1, Max: 1}
		case "uniform":
			if len(nums) != 2 {
				return nil, fmt.Errorf("policy entry %q: want uniform:MIN:MAX", entry)
			}
			pol = resilient.UniformDelay{Min: nums[0], Max: nums[1]}
		case "exp":
			if len(nums) != 1 {
				return nil, fmt.Errorf("policy entry %q: want exp:MEAN", entry)
			}
			pol = resilient.ExponentialDelay{Mean: nums[0]}
		case "const":
			if len(nums) != 1 {
				return nil, fmt.Errorf("policy entry %q: want const:D", entry)
			}
			pol = resilient.ConstantDelay{D: nums[0]}
		case "drop":
			if len(nums) != 1 || nums[0] < 0 || nums[0] > 1 {
				return nil, fmt.Errorf("policy entry %q: want drop:P with P in [0,1]", entry)
			}
			pol = resilient.DropPolicy{P: nums[0], Base: inner}
			continue
		case "partition":
			if len(nums) != 1 || nums[0] != float64(int(nums[0])) {
				return nil, fmt.Errorf("policy entry %q: want partition:BOUNDARY", entry)
			}
			pol = resilient.PartitionPolicy{GroupOf: resilient.HalvesPartition(resilient.ID(int(nums[0]))), Base: inner}
			continue
		default:
			return nil, fmt.Errorf("unknown policy entry %q", entry)
		}
		if inner != nil {
			return nil, fmt.Errorf("policy entry %q: base delay policy must be the last entry", entry)
		}
	}
	return pol, nil
}

// printOutcome is the text report of one execution on any engine: the
// simulator's counts and decision times when out.Sim is set, the engine and
// wall-clock time otherwise.
func printOutcome(out *resilient.Outcome) {
	res := out.Sim
	if res == nil {
		fmt.Printf("engine       %v\n", out.Engine)
	}
	fmt.Printf("all decided  %v\n", out.AllDecided)
	fmt.Printf("agreement    %v\n", out.Agreement)
	if len(out.Decisions) > 0 {
		fmt.Printf("value        %d\n", out.Value)
	}
	if res != nil {
		if res.Stalled != resilient.NotStalled {
			fmt.Printf("stalled      %v\n", res.Stalled)
		}
		fmt.Printf("messages     %d sent, %d delivered\n", res.MessagesSent, res.MessagesDelivered)
		fmt.Printf("events       %d\n", res.Events)
		fmt.Printf("sim time     %.3f\n", res.SimTime)
		fmt.Printf("max phase    %d\n", res.MaxPhase)
	} else {
		fmt.Printf("elapsed      %v\n", out.Elapsed.Round(time.Microsecond))
	}
	if len(out.Crashed) > 0 {
		fmt.Printf("crashed      %v\n", out.Crashed)
	}
	for _, id := range decidedIDs(out.Decisions) {
		fmt.Printf("  p%-3d decided %d in phase %d", id, out.Decisions[id], out.DecisionPhase[id])
		if res != nil {
			fmt.Printf(" at t=%.3f", res.DecisionTime[id])
		}
		fmt.Println()
	}
}

// outcomeJSON is the machine-readable report of one execution. A simulated
// run carries simJSON's counts and decision times, a live run its engine and
// elapsed time.
type outcomeJSON struct {
	Protocol   string           `json:"protocol"`
	Engine     string           `json:"engine,omitempty"`
	N          int              `json:"n"`
	K          int              `json:"k"`
	AllDecided bool             `json:"allDecided"`
	Agreement  bool             `json:"agreement"`
	Value      *resilient.Value `json:"value,omitempty"`
	*simJSON
	ElapsedSec *float64       `json:"elapsedSeconds,omitempty"`
	Crashed    []resilient.ID `json:"crashed,omitempty"`
	Decisions  []decisionJSON `json:"decisions"`
}

// simJSON holds the simulator-only fields of outcomeJSON.
type simJSON struct {
	Stalled   string          `json:"stalled,omitempty"`
	Messages  int             `json:"messagesSent"`
	Delivered int             `json:"messagesDelivered"`
	Events    int             `json:"events"`
	SimTime   float64         `json:"simTime"`
	MaxPhase  resilient.Phase `json:"maxPhase"`
}

type decisionJSON struct {
	Process resilient.ID    `json:"process"`
	Value   resilient.Value `json:"value"`
	Phase   resilient.Phase `json:"phase"`
	Time    *float64        `json:"time,omitempty"` // simulated runs only
}

func printOutcomeJSON(sc *resilient.Scenario, out *resilient.Outcome) error {
	js := outcomeJSON{Protocol: sc.Protocol.String(), N: sc.N, K: sc.K,
		AllDecided: out.AllDecided, Agreement: out.Agreement, Crashed: out.Crashed}
	if len(out.Decisions) > 0 {
		js.Value = &out.Value
	}
	res := out.Sim
	if res != nil {
		js.simJSON = &simJSON{Messages: res.MessagesSent, Delivered: res.MessagesDelivered,
			Events: res.Events, SimTime: res.SimTime, MaxPhase: res.MaxPhase}
		if res.Stalled != resilient.NotStalled {
			js.Stalled = res.Stalled.String()
		}
	} else {
		secs := out.Elapsed.Seconds()
		js.Engine, js.ElapsedSec = out.Engine.String(), &secs
	}
	for _, id := range decidedIDs(out.Decisions) {
		d := decisionJSON{Process: id, Value: out.Decisions[id], Phase: out.DecisionPhase[id]}
		if res != nil {
			t := res.DecisionTime[id]
			d.Time = &t
		}
		js.Decisions = append(js.Decisions, d)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(js)
}

// decidedIDs lists the deciders of a decision map in process-id order.
func decidedIDs(decisions map[resilient.ID]resilient.Value) []resilient.ID {
	ids := make([]resilient.ID, 0, len(decisions))
	for id := range decisions {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}
