// Command experiments regenerates the tables and figures of the
// paper's evaluation (§5) and of this repository's extensions to it.
// The studies are declared in internal/harness (harness.Studies);
// `experiments -h` lists them.
//
// Usage:
//
//	experiments [-run id] [-size f] [-jobs n] [-out dir]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/harness"
)

func main() {
	run := flag.String("run", "all", "study or output to regenerate, or all")
	size := flag.Float64("size", 1.0, "problem-size factor for runtime studies")
	jobs := flag.Int("jobs", runtime.NumCPU(), "measurements to run concurrently")
	out := flag.String("out", "", "directory to also write each table into, as <id>.txt and <id>.json")
	flag.Usage = func() {
		fmt.Fprintln(flag.CommandLine.Output(), "usage: experiments [-run id] [-size f] [-jobs n] [-out dir]")
		flag.PrintDefaults()
		fmt.Fprintf(flag.CommandLine.Output(), "\nstudies (-run takes a study id or one of its outputs):\n%s", harness.Usage())
	}
	flag.Parse()

	env := &harness.Env{Size: *size, Jobs: *jobs}
	emit := func(o harness.Output) {
		fmt.Println(o.Text)
		if *out != "" {
			if err := o.Write(*out); err != nil {
				fatal(err)
			}
		}
		if o.Gate != nil {
			fatal(o.Gate)
		}
	}

	known := *run == "all"
	for _, s := range harness.Studies {
		if *run != "all" && !s.Has(*run) {
			continue
		}
		known = true
		outs, err := s.Run(env)
		if err != nil {
			fatal(err)
		}
		for _, o := range outs {
			if *run == "all" || *run == s.ID || *run == o.ID {
				emit(o)
			}
		}
	}
	if !known {
		fmt.Fprintf(os.Stderr, "experiments: unknown study %q\n", *run)
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
