// Command blucheck is the end-to-end checker behind `make smoke`: one
// binary with one suite per property. Every serving suite boots
// serve.NewStack — the assembly bluserve runs — on an ephemeral port and
// drives it over HTTP, so what passes here is a statement about the
// process that ships.
//
// Usage:
//
//	blucheck [-artifacts DIR] <suite>...|all
//
// Run it without arguments for the suite list; each check function's
// comment says what that suite asserts.
//
// DIR (default: blucheck under the system temp directory) is both where
// the trace and explain suites find their input and where a failing
// serving suite leaves its evidence — the /metrics scrape, slow traces,
// alert JSON, dash HTML and the query log — under DIR/<suite>/, for CI
// to upload. blucheck writes nowhere else. It exits non-zero when any
// suite fails, and names the ones that did.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// suite is one named end-to-end property.
type suite struct {
	name string
	what string
	run  func(*check) error
}

// suites lists every check in the order `all` runs them: the offline
// file and engine checks first, then the serving stack from its plain
// surfaces to the ones layered on them.
var suites = []suite{
	{"trace", "DIR/trace.json, from `blubench -trace`, is valid Chrome trace-event JSON", checkTrace},
	{"explain", "DIR/explain.json, from `blubench -explain`, holds valid, reconciled reports", checkExplain},
	{"fuse", "fused vs staged results identical, H2D bytes reduced", checkFuse},
	{"metrics", "admin endpoints, exposition families, /healthz 200/503/200", checkMetrics},
	{"serve", "multi-user mix, drain, admission ledger reconciled", checkServe},
	{"qlog", "request-ID join across log, traces, EXPLAIN; phases sum to total", checkQlog},
	{"prof", "blu_prof_* ledger reconciles with the query log; /debug/pprof/profile always free", checkProf},
	{"dash", "alert lifecycle on an injected clock, byte-identical across runs", checkDash},
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: blucheck [-artifacts DIR] <suite>...|all\nsuites:")
	for _, s := range suites {
		fmt.Fprintf(w, "  %-8s %s\n", s.name, s.what)
	}
}

func main() {
	artifacts := flag.String("artifacts", filepath.Join(os.TempDir(), "blucheck"),
		"directory holding the trace/explain inputs and receiving failure evidence")
	flag.Usage = func() { usage(os.Stderr) }
	flag.Parse()

	var selected []suite
	for _, arg := range flag.Args() {
		if arg == "all" {
			selected = append(selected, suites...)
			continue
		}
		i := slices.IndexFunc(suites, func(s suite) bool { return s.name == arg })
		if i < 0 {
			fmt.Fprintf(os.Stderr, "blucheck: unknown suite %q\n", arg)
			usage(os.Stderr)
			os.Exit(2)
		}
		selected = append(selected, suites[i])
	}
	if len(selected) == 0 {
		usage(os.Stderr)
		os.Exit(2)
	}

	var failed []string
	for _, s := range selected {
		c := &check{suite: s.name, dir: *artifacts, kept: map[string][]byte{}}
		err := s.run(c)
		if err != nil {
			c.dump() // while the stack is still up to be asked for evidence
			fmt.Fprintf(os.Stderr, "blucheck %s: FAIL: %v\n", s.name, err)
			failed = append(failed, s.name)
		} else {
			c.logf("ok")
		}
		c.close()
	}
	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "blucheck: %d of %d suites failed: %s\n",
			len(failed), len(selected), strings.Join(failed, " "))
		os.Exit(1)
	}
	fmt.Printf("blucheck: %d suites ok\n", len(selected))
}
