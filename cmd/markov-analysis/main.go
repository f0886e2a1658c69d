// Command markov-analysis prints the Section 4 analytic results: the w_i
// view-majority probabilities, exact expected absorption times from every
// state, the collapsed 3-state bound of eq. (13), and the malicious-case
// bound 1/(2*Phi(l)).
//
// Usage:
//
//	markov-analysis -n 90                  # fail-stop chain with k = n/3
//	markov-analysis -n 90 -k 20            # explicit k
//	markov-analysis -n 100 -k 5 -malicious # Section 4.2 chain
//	markov-analysis -n 90 -states          # include the per-state table
//	markov-analysis -n 90 -mc 4000         # Monte-Carlo cross-check of E[T]
//
// With -mc > 0 a parallel ensemble of simulation runs (see internal/mc)
// cross-checks the exact E[T] from the balanced state; -workers bounds the
// fan-out and never changes the reported numbers.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"resilient/internal/markov"
	"resilient/internal/mc"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "markov-analysis:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("markov-analysis", flag.ContinueOnError)
	var (
		n         = fs.Int("n", 90, "number of processes")
		k         = fs.Int("k", -1, "fault parameter (default n/3)")
		malicious = fs.Bool("malicious", false, "analyse the Section 4.2 chain (k balancing adversaries)")
		forced    = fs.Bool("forced", true, "malicious chain: adversary messages in every view (the paper's model)")
		states    = fs.Bool("states", false, "print expected absorption time for every state")
		tailN     = fs.Int("tail", 0, "print P[T > t] for t = 0..tail from the balanced state")
		l         = fs.Float64("l", markov.DefaultL, "band parameter l for the collapsed bounds")
		mcTrials  = fs.Int("mc", 0, "Monte-Carlo trials cross-checking E[T] from the balanced state (0 = analytic only)")
		workers   = fs.Int("workers", 0, "concurrent ensemble workers (0 = GOMAXPROCS); results are identical for every value")
		seed      = fs.Uint64("seed", 1, "ensemble base seed (trial t uses PCG(seed, t))")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	forcedSet := false
	fs.Visit(func(f *flag.Flag) { forcedSet = forcedSet || f.Name == "forced" })
	if forcedSet && !*malicious {
		return errors.New("-forced does not apply to the fail-stop chain (it needs -malicious)")
	}
	if *k < 0 {
		*k = *n / 3
	}
	chain := markov.Chain{N: *n, K: *k, Model: markov.FailStop}
	if *malicious {
		chain.Model = markov.Adversary(*forced)
	}
	return analysis(chain, *l, *states, *tailN, ensembleConfig{trials: *mcTrials, workers: *workers, seed: *seed})
}

// ensembleConfig carries the -mc/-workers/-seed Monte-Carlo cross-check
// settings.
type ensembleConfig struct {
	trials  int
	workers int
	seed    uint64
}

// analysis prints the report on one chain; only the header lines and the
// paper's bounds differ between chain P and chain M.
func analysis(chain markov.Chain, l float64, states bool, tailN int, ens ensembleConfig) error {
	if err := chain.Validate(); err != nil {
		return err
	}
	times, err := chain.ExpectedAbsorption()
	if err != nil {
		return err
	}
	n, k, balanced := chain.N, chain.K, chain.Balanced()
	if chain.Model == markov.FailStop {
		fmt.Printf("fail-stop chain  n=%d k=%d  (Section 4.1)\n", n, k)
		fmt.Printf("  states: 0..%d = processes holding value 1\n", n)
		fmt.Printf("  absorbing region: 2i < n-k (= %d) or 2i > n+k (= %d)\n", n-k, n+k)
	} else {
		fmt.Printf("malicious chain  n=%d k=%d forced=%v  (Section 4.2)\n", n, k, chain.Model == markov.Forced)
		fmt.Printf("  states: 0..%d = correct processes holding value 1\n", chain.Pop())
		fmt.Printf("  k corresponds to l = 2k/sqrt(n) = %.4f\n", markov.LForK(n, k))
	}
	fmt.Printf("  exact E[T] from balanced state %d:  %.4f phases\n", balanced, times[balanced])
	if chain.Model == markov.FailStop {
		fmt.Printf("  collapsed bound eq.(13), l=%.4f:    %.4f phases\n", l, markov.CollapsedBound(n, l))
		viaMatrix, err := markov.CollapsedBoundViaMatrix(n, l)
		if err != nil {
			return err
		}
		fmt.Printf("  collapsed bound via (I-Q)^-1:       %.4f phases\n", viaMatrix)
		fmt.Printf("  paper's headline (l^2 = 1.5): bound < 7 for every n -> %v\n",
			markov.CollapsedBound(n, markov.DefaultL) < 7)
	} else {
		fmt.Printf("  paper bound 1/(2*Phi(l)):           %.4f phases\n", markov.MaliciousBound(markov.LForK(n, k)))
		fmt.Printf("  bound at requested l=%.4f:          %.4f phases\n", l, markov.MaliciousBound(l))
	}
	if ens.trials > 0 {
		sim := &mc.Chain{Chain: chain}
		e, err := sim.AbsorptionEnsemble(mc.EnsembleOptions{
			Trials: ens.trials, Workers: ens.workers, Start: balanced, Seed: ens.seed,
		})
		if err != nil {
			return err
		}
		fmt.Printf("  MC E[T] (%d trials):                %.4f ± %.4f (95%%), Δ from exact %.4f\n",
			e.Trials, e.Mean, e.CI95, e.Mean-times[balanced])
		fmt.Printf("  MC phases p50/p90/p99:              %.1f / %.1f / %.1f (max %.0f)\n",
			e.P50, e.P90, e.P99, e.Max)
	}
	if states {
		fmt.Println("  state   w_i      E[T]")
		for i, t := range times {
			fmt.Printf("  %5d   %.4f   %.4f\n", i, chain.W(i), t)
		}
	}
	if tailN > 0 {
		tail, err := chain.TailFromBalanced(tailN)
		if err != nil {
			return err
		}
		fmt.Println("  t    P[T > t]")
		for t, p := range tail {
			fmt.Printf("  %-4d %.3e\n", t, p)
		}
	}
	return nil
}
