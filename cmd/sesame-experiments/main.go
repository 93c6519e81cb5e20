// Command sesame-experiments regenerates every table and figure of the
// paper's evaluation section (§V plus the Fig. 1 model and the
// DESIGN.md ablations), plus the degraded-comms matrix and the mission
// host's determinism and load phases. Determinism contracts of the
// chaos harness, flight recorder, campaign engine and scenario layer
// are gated by their packages' tests, and per-monitor costs are
// measured by perfbench (see EXPERIMENTS.md).
//
// Usage:
//
//	sesame-experiments -exp all           # everything
//	sesame-experiments -exp fig5          # §V-A battery failure / availability
//	sesame-experiments -exp accuracy      # §V-B SAR accuracy
//	sesame-experiments -exp fig6          # §V-C spoofing trajectory + detection
//	sesame-experiments -exp fig7          # §V-C collaborative safe landing
//	sesame-experiments -exp fig1          # ConSert network evaluation
//	sesame-experiments -exp ablations     # design-choice ablations
//	sesame-experiments -exp patterns      # boustrophedon vs spiral coverage
//	sesame-experiments -exp night         # RGB vs thermal across visibility
//	sesame-experiments -exp comms         # degraded-comms robustness matrix
//	sesame-experiments -exp missionhost   # multi-tenant mission host determinism + load
package main

import (
	"flag"
	"fmt"
	"os"

	"sesame/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: all|fig1|fig5|accuracy|fig6|fig7|ablations|patterns|night|comms|missionhost")
	seed := flag.Int64("seed", 1, "simulation seed")
	csvDir := flag.String("csv", "", "when set, also write raw series as CSV files into this directory")
	flag.Parse()

	writeCSV := func(fn func(string) error) error {
		if *csvDir == "" {
			return nil
		}
		return fn(*csvDir)
	}

	run := func(name string, fn func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "sesame-experiments: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	run("fig1", func() error {
		r, err := experiments.RunFig1()
		if err != nil {
			return err
		}
		r.Print(os.Stdout)
		return nil
	})
	run("fig5", func() error {
		r, err := experiments.RunFig5(*seed)
		if err != nil {
			return err
		}
		r.Print(os.Stdout)
		return writeCSV(r.WriteCSV)
	})
	run("accuracy", func() error {
		r, err := experiments.RunAccuracy(*seed)
		if err != nil {
			return err
		}
		r.Print(os.Stdout)
		return writeCSV(r.WriteCSV)
	})
	run("fig6", func() error {
		r, err := experiments.RunFig6(*seed)
		if err != nil {
			return err
		}
		r.Print(os.Stdout)
		return writeCSV(r.WriteCSV)
	})
	run("fig7", func() error {
		r, err := experiments.RunFig7(*seed)
		if err != nil {
			return err
		}
		r.Print(os.Stdout)
		stats, err := experiments.RunFig7Stats(20)
		if err != nil {
			return err
		}
		stats.Print(os.Stdout)
		return writeCSV(r.WriteCSV)
	})
	run("ablations", func() error {
		r, err := experiments.RunAblations(*seed)
		if err != nil {
			return err
		}
		r.Print(os.Stdout)
		return nil
	})
	run("patterns", func() error {
		r, err := experiments.RunPatterns(*seed)
		if err != nil {
			return err
		}
		r.Print(os.Stdout)
		return writeCSV(r.WriteCSV)
	})
	run("comms", func() error {
		r, err := experiments.RunComms(*seed)
		if err != nil {
			return err
		}
		r.Print(os.Stdout)
		return writeCSV(r.WriteCSV)
	})
	run("night", func() error {
		r, err := experiments.RunNight(*seed)
		if err != nil {
			return err
		}
		r.Print(os.Stdout)
		return nil
	})
	run("missionhost", func() error {
		r, err := experiments.RunMissionHost(*seed)
		if err != nil {
			return err
		}
		r.Print(os.Stdout)
		if !r.Match {
			return fmt.Errorf("hosted mission diverged from the standalone run")
		}
		return nil
	})

	switch *exp {
	case "all", "fig1", "fig5", "accuracy", "fig6", "fig7", "ablations", "patterns", "night", "comms", "missionhost":
	default:
		fmt.Fprintf(os.Stderr, "sesame-experiments: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}
