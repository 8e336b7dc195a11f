// Command maficsearch runs the adversary-search harness: a deterministic
// seeded grid of attack shapes (rotation, pulsing, rate mixes, victim
// spreads) is executed against each defence configuration, and the worst-case
// accuracy / collateral point per defence is reported: a measurement of
// robustness, where ./benchmark measures speed.
//
// Usage:
//
//	maficsearch [flags]
//
// Examples:
//
//	maficsearch                          # full grid, paper vs hardened, table to stdout
//	maficsearch -quick                   # tiny smoke grid (same one `make check` runs)
//	maficsearch -out ROBUST_current.json # also write the full JSON report
//	maficsearch -workers 4 -seed 7       # bounded parallelism, different seed
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"mafic/internal/experiment"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "maficsearch:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("maficsearch", flag.ContinueOnError)
	var (
		quick   = fs.Bool("quick", false, "run the tiny smoke grid on scaled-down scenarios")
		workers = fs.Int("workers", 0, "concurrent runs (0 = GOMAXPROCS, 1 = serial)")
		seed    = fs.Int64("seed", 1, "base seed; point i runs with seed+i")
		outPath = fs.String("out", "", "write the full JSON report to this file")
		asJSON  = fs.Bool("json", false, "print the full report as JSON instead of the table")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	spec := experiment.DefaultSearchSpec()
	if *quick {
		spec = experiment.QuickSearchSpec()
	}
	spec.Seed = *seed

	start := time.Now()
	report, err := experiment.Search(spec, experiment.SearchOptions{
		Quick:   *quick,
		Workers: *workers,
	})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	if *outPath != "" {
		blob, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		blob = append(blob, '\n')
		if err := os.WriteFile(*outPath, blob, 0o644); err != nil {
			return err
		}
	}

	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(report)
	}

	mode := "full"
	if report.Quick {
		mode = "quick"
	}
	fmt.Fprintf(out, "adversary search: %d attack points × %d defences (%s grid, seed %d, %v)\n",
		report.GridSize, len(report.Defences), mode, report.Seed, elapsed.Round(time.Millisecond))
	for _, d := range report.Defences {
		fmt.Fprintf(out, "\ndefence %q: mean accuracy %.2f%%\n", d.Defence, d.MeanAccuracy*100)
		wa := d.WorstAccuracy
		fmt.Fprintf(out, "  worst accuracy:   %6.2f%%  at %s/%s/%s/spread%.2f (Lr %.2f%%, %d ATRs, forgiven %d)\n",
			wa.Accuracy*100, wa.Fault, wa.Shape, wa.Mix, wa.Spread,
			wa.LegitimateDropRate*100, wa.ATRCount, wa.AttackForgiven)
		wc := d.WorstCollateral
		fmt.Fprintf(out, "  worst collateral: %6.2f%% Lr at %s/%s/%s/spread%.2f (accuracy %.2f%%, condemned %d)\n",
			wc.LegitimateDropRate*100, wc.Fault, wc.Shape, wc.Mix, wc.Spread,
			wc.Accuracy*100, wc.LegitCondemned)
		for _, f := range d.ByFault {
			fw := f.WorstAccuracy
			fmt.Fprintf(out, "  fault %-12s mean %6.2f%%  worst %6.2f%% at %s/%s/spread%.2f\n",
				f.Fault+":", f.MeanAccuracy*100, fw.Accuracy*100, fw.Shape, fw.Mix, fw.Spread)
		}
	}
	return nil
}
