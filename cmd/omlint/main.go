// Command omlint is a minimal OpenMetrics text-exposition linter: it
// reads an exposition from stdin (or the files named as arguments)
// and exits non-zero with a diagnostic if the syntax is malformed.
// The CI live-endpoint smoke job pipes `curl /metrics` through it to
// prove the exporter emits parseable OpenMetrics, with no external
// Prometheus tooling in the container.
//
// The checks are telemetry.LintOpenMetrics, over the sample tokenizer
// obs.Scraper reads expositions with. -strict adds the hygiene checks
// third-party scrapers rely on: HELP and TYPE for every sampled
// family, fully parsed label sets, and well-formed exemplars.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/telemetry"
)

// lint validates one exposition and returns its diagnostics as
// "<src>:<line>: <msg>".
func lint(src string, r io.Reader, strict bool) []string {
	var errs []string
	for _, d := range telemetry.LintOpenMetrics(r, strict) {
		errs = append(errs, src+":"+d)
	}
	return errs
}

func main() {
	strict := flag.Bool("strict", false, "also require HELP+TYPE metadata per sampled family and validate label-value escaping")
	flag.Parse()
	var errs []string
	if args := flag.Args(); len(args) > 0 {
		for _, path := range args {
			f, err := os.Open(path)
			if err != nil {
				errs = append(errs, err.Error())
				continue
			}
			errs = append(errs, lint(path, f, *strict)...)
			f.Close()
		}
	} else {
		errs = lint("stdin", os.Stdin, *strict)
	}
	for _, e := range errs {
		fmt.Fprintf(os.Stderr, "omlint: %s\n", e)
	}
	if len(errs) > 0 {
		os.Exit(1)
	}
	fmt.Println("omlint: OK")
}
