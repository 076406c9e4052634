// Package cli is the one flag and output surface of the commands under
// cmd/. Every shared flag is defined here once; a command registers only
// the ones that change its output, writes its figures and text artifacts
// through the returned Flags, and runs its body through Flags.Run, which
// flushes the -cpuprofile/-memprofile profiles on every exit path:
//
//	mcfigures -quick -cpuprofile fig.cpu.pprof -memprofile fig.mem.pprof
//	go tool pprof fig.cpu.pprof
package cli

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"multicastnet/internal/stats"
)

// Flag selects shared flags for Register.
type Flag uint

// The shared flags.
const (
	Out      Flag = 1 << iota // -out DIR
	Quick                     // -quick
	Seed                      // -seed N
	Parallel                  // -parallel N
	CSV                       // -csv
	SimCheck                  // -simcheck
	Scheme                    // -scheme NAME
	Profile                   // -cpuprofile FILE and -memprofile FILE
)

// Flags holds the shared flag values. A flag the command did not
// register keeps its default.
type Flags struct {
	Out      string
	Quick    bool
	Seed     uint64
	Parallel int
	CSV      bool
	SimCheck bool
	Scheme   string

	cpuProfile, memProfile string
}

// Register defines the selected shared flags on the default flag set.
// Command-specific flags may be defined before or after it; Run parses
// them all.
func Register(which Flag) *Flags {
	f := &Flags{Out: "results", Seed: 1990}
	if which&Out != 0 {
		flag.StringVar(&f.Out, "out", f.Out, "output directory")
	}
	if which&Quick != 0 {
		flag.BoolVar(&f.Quick, "quick", false, "reduced workloads: seconds instead of minutes")
	}
	if which&Seed != 0 {
		flag.Uint64Var(&f.Seed, "seed", f.Seed, "workload seed")
	}
	if which&Parallel != 0 {
		flag.IntVar(&f.Parallel, "parallel", 0, "sweep workers (0 = GOMAXPROCS, 1 = sequential); outputs are byte-identical at every worker count")
	}
	if which&CSV != 0 {
		flag.BoolVar(&f.CSV, "csv", false, "emit CSV on stdout instead of writing files")
	}
	if which&SimCheck != 0 {
		flag.BoolVar(&f.SimCheck, "simcheck", false, "run wormsim invariant checks inside every simulation")
	}
	if which&Scheme != 0 {
		flag.StringVar(&f.Scheme, "scheme", "", "routing-engine scheme by registry name (mcroute -list-schemes prints the registry)")
	}
	if which&Profile != 0 {
		flag.StringVar(&f.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
		flag.StringVar(&f.memProfile, "memprofile", "", "write an allocation profile to this file at exit")
	}
	return f
}

// Run parses the command line and runs body between starting and
// stopping the requested profiles. The profiles are complete whether
// body succeeds or fails. On failure it prints "command: error" to
// stderr and exits with status 1.
func (f *Flags) Run(body func() error) {
	flag.Parse()
	if err := f.profiled(body); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", filepath.Base(os.Args[0]), err)
		os.Exit(1)
	}
}

// profiled runs body under the requested profiles and returns the first
// error of body or of writing the profiles.
func (f *Flags) profiled(body func() error) (err error) {
	if f.cpuProfile != "" {
		cpu, cerr := os.Create(f.cpuProfile)
		if cerr != nil {
			return cerr
		}
		if cerr := pprof.StartCPUProfile(cpu); cerr != nil {
			cpu.Close()
			return cerr
		}
		defer func() {
			pprof.StopCPUProfile()
			err = errors.Join(err, cpu.Close())
		}()
	}
	if f.memProfile != "" {
		defer func() { err = errors.Join(err, writeFile(f.memProfile, writeHeapProfile)) }()
	}
	return body()
}

// writeHeapProfile writes the heap profile after a GC, so it shows live
// steady-state memory next to the cumulative allocations.
func writeHeapProfile(w io.Writer) error {
	runtime.GC()
	return pprof.WriteHeapProfile(w)
}

// WriteFigures writes figs: with -csv as CSV on stdout, otherwise each
// as a BASE.txt table and a BASE.csv file under -out, BASE being
// Base(ID). Under -csv that CSV is a command's whole output, so callers
// write nothing else when f.CSV is set.
func (f *Flags) WriteFigures(figs ...*stats.Figure) error {
	for _, fig := range figs {
		if f.CSV {
			if err := fig.WriteCSV(os.Stdout); err != nil {
				return err
			}
			continue
		}
		base := Base(fig.ID)
		if err := f.WriteText(base+".txt", fig.WriteTable); err != nil {
			return err
		}
		if err := f.WriteText(base+".csv", fig.WriteCSV); err != nil {
			return err
		}
	}
	return nil
}

// WriteText writes the artifact name under -out, creating the directory if
// needed, and reports the write on stdout. write's output is buffered,
// so a failed write surfaces here from the final flush and write may
// ignore the errors of individual prints.
func (f *Flags) WriteText(name string, write func(io.Writer) error) error {
	if err := os.MkdirAll(f.Out, 0o755); err != nil {
		return err
	}
	if err := writeFile(filepath.Join(f.Out, name), write); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", name)
	return nil
}

// writeFile creates path, fills it through a buffer with write and
// closes it, returning the first error of the four steps.
func writeFile(path string, write func(io.Writer) error) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(file)
	if err := write(w); err != nil {
		file.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}

// Base is the results/ file base name of a figure ID:
// "Fig 7.11" -> "fig_7_11", "Ablation A" -> "ablation_a".
func Base(id string) string {
	return strings.NewReplacer(" ", "_", ".", "_").Replace(strings.ToLower(id))
}
