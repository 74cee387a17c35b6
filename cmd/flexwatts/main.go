// Command flexwatts regenerates the paper's tables and figures.
//
// Usage:
//
//	flexwatts -exp fig7                # one experiment, ASCII to stdout
//	flexwatts -exp all                 # every registered experiment
//	flexwatts -exp fig7 -format json   # typed dataset as JSON
//	flexwatts -exp all -format csv -o all.csv
//	flexwatts -exp all -parallel 8     # ... on an 8-worker sweep pool
//	flexwatts -list                    # list experiment ids
//	flexwatts -exp all -cpuprofile cpu.pprof -memprofile mem.pprof
//
// -format selects the renderer: "ascii" (default, the goldens' layout),
// "json" (one dataset object, or an array of datasets for -exp all), or
// "csv" (one RFC 4180 block per table, blank line between blocks). -o
// writes the output to a file instead of stdout.
//
// -parallel bounds the sweep engine's worker pool. It defaults to 0, which
// means "size by runtime.GOMAXPROCS(0)" — exactly the sweep.Map contract —
// so the CLI default and the engine default can never drift; 1 is fully
// serial. The engine collects results by grid index, so -parallel never
// changes the output bytes — only how fast they arrive.
//
// The profiling flags cover the whole run (environment construction,
// predictor characterization, every sweep) so a full-suite profile needs no
// throwaway test harness: `go tool pprof cpu.pprof` on the output works
// directly.
//
// Experiment ids follow the paper's figure/table numbering (fig2a ... fig8e,
// tab1, tab2, obs); the README's "Experiment ids" table lists them all.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/flexwatts/report"
	"repro/internal/experiments"
)

// writeOutput renders the selected experiments in the selected format.
func writeOutput(env *experiments.Env, exp string, format report.Format, w io.Writer) error {
	if exp == "all" {
		switch format {
		case report.FormatASCII:
			return experiments.RunAll(env, w)
		case report.FormatJSON:
			ds, err := experiments.Datasets(env)
			if err != nil {
				return err
			}
			return report.WriteJSONAll(w, ds)
		default:
			ds, err := experiments.Datasets(env)
			if err != nil {
				return err
			}
			return report.WriteCSVAll(w, ds)
		}
	}
	d, err := experiments.Dataset(exp, env)
	if err != nil {
		return err
	}
	if format == report.FormatASCII {
		return d.WriteASCIIGolden(w)
	}
	return d.Write(w, format)
}

// run is the testable entry point: it parses args, executes, and returns
// the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("flexwatts", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "", "experiment id to run, or 'all'")
	list := fs.Bool("list", false, "list experiment ids and exit")
	parallel := fs.Int("parallel", 0,
		"sweep engine worker count (0 = GOMAXPROCS, 1 = serial; output is identical either way)")
	format := fs.String("format", "ascii", "output format: ascii, json or csv")
	outPath := fs.String("o", "", "write output to `file` instead of stdout")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the whole run to `file`")
	memprofile := fs.String("memprofile", "", "write a heap profile at exit to `file`")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Fprintln(stdout, id)
		}
		return 0
	}
	if *exp == "" {
		fmt.Fprintln(stderr, "usage: flexwatts -exp <id>|all [-format ascii|json|csv] [-o file] [-parallel N]   (or -list)")
		return 2
	}
	if *exp != "all" && !experiments.Known(*exp) {
		fmt.Fprintf(stderr, "flexwatts: unknown experiment %q; valid ids: all %s\n",
			*exp, strings.Join(experiments.IDs(), " "))
		return 2
	}
	fmtSel, err := report.ParseFormat(*format)
	if err != nil {
		fmt.Fprintln(stderr, "flexwatts:", err)
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, "flexwatts:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "flexwatts:", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(stderr, "flexwatts: closing cpu profile:", err)
			}
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(stderr, "flexwatts:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "flexwatts: writing heap profile:", err)
			}
		}()
	}

	env, err := experiments.NewEnv()
	if err != nil {
		fmt.Fprintln(stderr, "flexwatts:", err)
		return 1
	}
	env.Workers = *parallel

	if *outPath != "" {
		// Flush and close explicitly so a short write (full disk, failing
		// mount) fails the process instead of leaving a truncated file
		// behind an exit code of 0.
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(stderr, "flexwatts:", err)
			return 1
		}
		bw := bufio.NewWriter(f)
		werr := writeOutput(env, *exp, fmtSel, bw)
		if err := bw.Flush(); werr == nil {
			werr = err
		}
		if err := f.Close(); werr == nil {
			werr = err
		}
		if werr != nil {
			fmt.Fprintln(stderr, "flexwatts:", werr)
			return 1
		}
		return 0
	}

	if err := writeOutput(env, *exp, fmtSel, stdout); err != nil {
		fmt.Fprintln(stderr, "flexwatts:", err)
		return 1
	}
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
