// Command maficsim runs a single MAFIC defence scenario and prints its
// metrics. It is the quickest way to reproduce the paper's Table II default
// operating point or to explore a custom parameter combination.
//
// Usage:
//
//	maficsim [flags]
//
// Examples:
//
//	maficsim                          # paper defaults (Pd=90%, Vt=50, Γ=95%, N=40)
//	maficsim -list                    # show the registered scenario catalog
//	maficsim -scenario rolling-pulse  # run a registered adversarial workload
//	maficsim -scenario shrew -quick   # scaled-down variant of a catalog entry
//	maficsim -pd 0.7 -flows 100       # lower drop probability, heavier traffic
//	maficsim -defense proportional    # the non-adaptive baseline for comparison
//	maficsim -json                    # machine-readable output
//	maficsim -checkpoint-every 500ms  # snapshot the live run twice per simulated second
//	maficsim -resume checkpoint-500ms.snap  # resume a snapshot; bit-identical to the uninterrupted run
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"mafic/internal/checkpoint"
	"mafic/internal/experiment"
	"mafic/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "maficsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("maficsim", flag.ContinueOnError)
	var (
		scenario = fs.String("scenario", "", "run a registered scenario from the catalog (see -list)")
		list     = fs.Bool("list", false, "list the registered scenario catalog and exit")
		quick    = fs.Bool("quick", false, "with -scenario: run the scaled-down variant (same variant the golden tests pin)")
		hardened = fs.Bool("hardened", false, "enable the robustness hardening (probing memory + ATR hysteresis)")
		pd       = fs.Float64("pd", 0.90, "MAFIC packet dropping probability Pd")
		flows    = fs.Int("flows", 50, "total traffic volume Vt (number of flows)")
		tcpShare = fs.Float64("tcp", 0.95, "fraction of TCP flows Γ")
		rate     = fs.Float64("rate", 1e6, "attack source rate R in packets/s (paper scale)")
		routers  = fs.Int("routers", 40, "domain size N (number of routers)")
		seconds  = fs.Float64("duration", 2.0, "simulated seconds")
		seed     = fs.Int64("seed", 1, "random seed")
		defense  = fs.String("defense", "mafic", "defense: mafic, proportional, or none")
		asJSON   = fs.Bool("json", false, "print the full result as JSON")
		series   = fs.Bool("series", false, "include the victim bandwidth time series in JSON output")

		ckptEvery = fs.Duration("checkpoint-every", 0, "write a snapshot every interval of simulated time (e.g. 500ms)")
		ckptAt    = fs.Duration("checkpoint-at", 0, "write one snapshot at this simulated time (e.g. 850ms)")
		ckptOut   = fs.String("checkpoint-out", "checkpoint", "snapshot filename prefix; files are written as <prefix>-<t>ms.snap")
		resume    = fs.String("resume", "", "resume from a snapshot file instead of starting a run (only -json and -series combine with it)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	if *resume != "" {
		// The snapshot carries its scenario, so a flag that would shape the
		// run has nothing to apply to: refuse it rather than ignore it.
		var refused []string
		for name := range explicit {
			if name != "resume" && name != "json" && name != "series" {
				refused = append(refused, "-"+name)
			}
		}
		if len(refused) > 0 {
			slices.Sort(refused)
			return fmt.Errorf("-resume continues the run the snapshot holds, whose scenario it carries; it combines only with -json and -series, not with %s",
				strings.Join(refused, ", "))
		}
		data, err := os.ReadFile(*resume)
		if err != nil {
			return err
		}
		start := time.Now()
		res, err := experiment.ResumeControlled(data, experiment.ControlOptions{})
		if err != nil {
			return err
		}
		return printResult(out, res, time.Since(start), *asJSON, *series)
	}

	if *list {
		entries := experiment.Entries()
		fmt.Fprintf(out, "registered scenarios (%d):\n", len(entries))
		for _, e := range entries {
			fmt.Fprintf(out, "  %-18s %s\n", e.Name, e.Description)
		}
		return nil
	}

	// Without -scenario every flag applies, defaults included (the
	// original CLI contract). With -scenario, only flags the user set
	// explicitly override the catalog entry's own knobs.
	use := func(name string) bool { return *scenario == "" || explicit[name] }

	duration := sim.Time(*seconds * float64(sim.Second))
	o := experiment.Overrides{
		Scenario: *scenario,
		Quick:    *quick,
		Hardened: *hardened,
		Seed:     applied(use("seed"), seed),
		Duration: applied(use("duration"), &duration),
		Pd:       applied(use("pd"), pd),
		Flows:    applied(use("flows"), flows),
		TCPShare: applied(use("tcp"), tcpShare),
		Rate:     applied(use("rate"), rate),
		Routers:  applied(use("routers"), routers),
	}
	if use("defense") {
		o.Defense = *defense
	}
	s, err := o.Build()
	if err != nil {
		return err
	}

	if *ckptEvery < 0 || *ckptAt < 0 {
		return fmt.Errorf("checkpoint times must be positive")
	}
	if *ckptEvery != 0 && *ckptAt != 0 {
		return fmt.Errorf("use either -checkpoint-every or -checkpoint-at, not both")
	}
	if sim.FromDuration(*ckptEvery) >= s.Duration {
		return fmt.Errorf("-checkpoint-every %v produces no snapshots within the %v run", *ckptEvery, s.Duration)
	}
	save := func(at sim.Time, data []byte) error {
		name := fmt.Sprintf("%s-%dms.snap", *ckptOut, at/sim.Millisecond)
		// Atomic (temp + fsync + rename): a crash mid-write must never
		// leave a torn file where a resumable snapshot should be.
		if werr := checkpoint.WriteFileAtomic(name, data, 0o644); werr != nil {
			return werr
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d bytes at t=%v)\n", name, len(data), at)
		return nil
	}

	start := time.Now()
	var res experiment.Result
	switch {
	case *ckptAt != 0:
		res, err = experiment.RunWithCheckpoints(s, []sim.Time{sim.FromDuration(*ckptAt)}, save)
	case *ckptEvery != 0:
		res, err = experiment.RunControlled(s, experiment.ControlOptions{CheckpointEvery: sim.FromDuration(*ckptEvery), Save: save})
	default:
		res, err = experiment.Run(s)
	}
	if err != nil {
		return err
	}
	return printResult(out, res, time.Since(start), *asJSON, *series)
}

// applied is a flag's value as an override: set when the flag applies, unset
// (keep the scenario's own knob) when it does not.
func applied[T any](use bool, v *T) *T {
	if use {
		return v
	}
	return nil
}

func printResult(out io.Writer, res experiment.Result, elapsed time.Duration, asJSON, series bool) error {
	if asJSON {
		if !series {
			res.Series = nil
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}

	fmt.Fprintf(out, "MAFIC scenario %q (defense=%s)\n", res.Name, res.Defense)
	fmt.Fprintf(out, "  parameters: Pd=%.0f%%  Vt=%d flows  Γ=%.0f%% TCP  R=%.0f pkt/s (scaled)  N=%d routers\n",
		res.Pd*100, res.Volume, res.TCPShare*100, res.AttackRate, res.Routers)
	if res.Activated {
		how := "pushback detection"
		if !res.DetectedByPushback {
			how = "scheduled fallback"
		}
		fmt.Fprintf(out, "  defense activated at t=%.3fs via %s on %d ATRs\n", res.ActivationSeconds, how, res.ATRCount)
	} else {
		fmt.Fprintf(out, "  defense was never activated\n")
	}
	fmt.Fprintf(out, "  attack dropping accuracy (α):     %6.2f%%\n", res.Accuracy*100)
	fmt.Fprintf(out, "  traffic reduction rate (β):       %6.2f%%\n", res.TrafficReduction*100)
	fmt.Fprintf(out, "  false positive rate (θp):         %6.3f%%\n", res.FalsePositiveRate*100)
	fmt.Fprintf(out, "  false negative rate (θn):         %6.3f%%\n", res.FalseNegativeRate*100)
	fmt.Fprintf(out, "  legitimate packet drop rate (Lr): %6.2f%%\n", res.LegitimateDropRate*100)
	fmt.Fprintf(out, "  flows probed=%d nice=%d condemned=%d illegal=%d (legit condemned=%d, attack forgiven=%d)\n",
		res.DefenseStats.FlowsProbed, res.DefenseStats.FlowsNice, res.DefenseStats.FlowsCondemned,
		res.DefenseStats.FlowsIllegal, res.LegitFlowsCondemned, res.AttackFlowsForgiven)
	if res.Counts.FaultDrops > 0 {
		fmt.Fprintf(out, "  fault drops: %d packets lost to link/router churn\n", res.Counts.FaultDrops)
	}
	fmt.Fprintf(out, "  events processed: %d  (wall time %v)\n", res.EventsProcessed, elapsed.Round(time.Millisecond))
	fmt.Fprintf(out, "  route state: %d next-hop entries resident (%d bytes at one-byte row positions, demand-driven)\n",
		res.RouteEntries, res.RouteBytes)
	return nil
}
