// Command maficfig regenerates the data behind the figures of the MAFIC
// paper's evaluation section. It runs every distinct scenario of the requested
// figures' parameter sweeps once (figures plotting the same grid share its
// runs) and prints each figure's series as an aligned text table (or JSON
// with -json), so the output can be compared panel by panel with the
// published plots.
//
// Usage:
//
//	maficfig -fig 3a            # one figure
//	maficfig -all               # every figure, full sweeps
//	maficfig -all -quick        # every figure, reduced sweeps (CI-sized)
//	maficfig -fig 7 -json       # machine-readable series
//	maficfig -list              # list available figure ids
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"mafic/internal/experiment"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "maficfig:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("maficfig", flag.ContinueOnError)
	var (
		figID   = fs.String("fig", "", "figure to regenerate (e.g. 3a, 4b, 7, ablation-baseline)")
		all     = fs.Bool("all", false, "regenerate every figure")
		quick   = fs.Bool("quick", false, "reduced sweeps for a fast pass")
		asJSON  = fs.Bool("json", false, "print JSON instead of text tables")
		list    = fs.Bool("list", false, "list available figure ids and exit")
		seed    = fs.Int64("seed", 1, "base random seed")
		workers = fs.Int("workers", 0, "sweep points run concurrently (0 = all cores, 1 = serial; results are identical)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, id := range experiment.AllFigureIDs() {
			fmt.Fprintln(out, id)
		}
		return nil
	}

	var ids []experiment.FigureID
	switch {
	case *all:
		ids = experiment.AllFigureIDs()
	case *figID != "":
		ids = []experiment.FigureID{experiment.FigureID(*figID)}
	default:
		return fmt.Errorf("specify -fig <id> or -all (use -list to see ids)")
	}

	start := time.Now()
	figs, err := experiment.GenerateFigures(ids, experiment.SweepOptions{Quick: *quick, Seed: *seed, Workers: *workers})
	if err != nil {
		return err
	}
	for _, fig := range figs {
		if *asJSON {
			enc := json.NewEncoder(out)
			enc.SetIndent("", "  ")
			if err := enc.Encode(fig); err != nil {
				return err
			}
			continue
		}
		printFigure(out, fig)
	}
	if !*asJSON {
		fmt.Fprintf(out, "\n%d figure(s) generated in %v\n", len(figs), time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// printFigure renders one figure as an aligned text table: one row per x
// value, one column per series.
func printFigure(out io.Writer, fig experiment.Figure) {
	fmt.Fprintf(out, "\n=== Figure %s — %s\n", fig.ID, fig.Title)
	fmt.Fprintf(out, "    x axis: %s | y axis: %s\n", fig.XLabel, fig.YLabel)

	// Collect the union of x values across series so ragged series (like
	// the time-series panel) still print sensibly.
	xOrder := make([]float64, 0)
	seenX := map[float64]bool{}
	for _, s := range fig.Series {
		for _, p := range s.Points {
			if !seenX[p.X] {
				seenX[p.X] = true
				xOrder = append(xOrder, p.X)
			}
		}
	}
	sort.Float64s(xOrder)

	fmt.Fprintf(out, "%12s", fig.XLabel)
	for _, s := range fig.Series {
		fmt.Fprintf(out, "%16s", s.Label)
	}
	fmt.Fprintln(out)
	for _, x := range xOrder {
		fmt.Fprintf(out, "%12.3g", x)
		for _, s := range fig.Series {
			y, ok := lookupY(s, x)
			if !ok {
				fmt.Fprintf(out, "%16s", "-")
				continue
			}
			fmt.Fprintf(out, "%16.4f", y)
		}
		fmt.Fprintln(out)
	}
}

func lookupY(s experiment.Series, x float64) (float64, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}
