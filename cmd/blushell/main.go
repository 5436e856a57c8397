// Command blushell is an interactive SQL shell over a generated
// TPC-DS-like database, executing on the hybrid CPU/GPU engine.
//
// Usage:
//
//	blushell [-sf 0.02] [-devices 2] [-gpu=true]
//
// Meta commands are listed by \help; the table in this file is the
// single source of truth for dispatch, usage and help text.
//
// -serve mounts the admin HTTP surface (/metrics, /healthz,
// /debug/queries, /debug/explain) on the given address for the
// session's lifetime, so a scraper can watch the shell's engine live.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"blugpu/internal/columnar"
	"blugpu/internal/engine"
	"blugpu/internal/metrics"
	"blugpu/internal/qlog"
	"blugpu/internal/trace"
	"blugpu/internal/workload"
)

func main() {
	sf := flag.Float64("sf", 0.02, "dataset scale factor")
	devices := flag.Int("devices", 2, "number of simulated GPUs")
	gpuOn := flag.Bool("gpu", true, "start with GPU offload enabled")
	serve := flag.String("serve", "", "also serve /metrics, /healthz, /debug/queries and /debug/explain on this host:port")
	flag.Parse()

	fmt.Printf("generating dataset (sf=%g)...\n", *sf)
	data := workload.Generate(*sf, 20160626)
	eng, err := engine.New(engine.Config{Devices: *devices, Degree: 24})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := data.RegisterAll(eng); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	eng.SetGPUEnabled(*gpuOn)
	if *serve != "" {
		srv, ln, err := metrics.Serve(*serve, metrics.SourcesFromEngine(eng))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("admin surface: http://%s/metrics\n", ln.Addr())
	}
	fmt.Printf("ready: %d tables, %.1f MB, GPU %s. Type SQL, \\tables or \\help.\n",
		len(data.Tables), float64(data.TotalBytes())/(1<<20), onOff(eng.GPUEnabled()))

	sh := &shell{eng: eng, data: data}
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("blu> ")
		if !scanner.Scan() {
			break
		}
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "\\") {
			if sh.meta(line) {
				return
			}
			continue
		}
		run(eng, line)
	}
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

// shell is the session state the meta commands operate on.
type shell struct {
	eng  *engine.Engine
	data *workload.Dataset
}

// metaCommand is one \command: the names it answers to, its usage
// syntax, a one-line description, and the handler. The handler gets the
// whitespace-split fields and the raw line (for commands that take SQL)
// and returns true to quit the shell.
type metaCommand struct {
	names []string
	usage string
	help  string
	run   func(sh *shell, fields []string, line string) bool
}

// metaCommands is the single source of truth for dispatch, the
// "commands:" line and \help. Order is display order.
var metaCommands = []metaCommand{
	{[]string{"\\tables"}, "\\tables", "list tables with row counts", (*shell).cmdTables},
	{[]string{"\\describe"}, "\\describe <t>", "show table t's columns", (*shell).cmdDescribe},
	{[]string{"\\explain"}, "\\explain [analyze] <sql>", "show the plan and optimizer prognosis; analyze runs the query and audits planned vs. actual", (*shell).cmdExplain},
	{[]string{"\\gpu"}, "\\gpu on|off", "toggle device offload", (*shell).cmdGPU},
	{[]string{"\\monitor"}, "\\monitor", "print the performance monitor report", (*shell).cmdMonitor},
	{[]string{"\\metrics"}, "\\metrics", "print the Prometheus text exposition of the session", (*shell).cmdMetrics},
	{[]string{"\\trace"}, "\\trace on|off|show|save <f>", "control span tracing: toggle, flame summary, Chrome JSON export", (*shell).cmdTrace},
	{[]string{"\\help", "\\h", "\\?"}, "\\help", "list commands", nil},
	{[]string{"\\quit", "\\q", "\\exit"}, "\\quit", "exit", func(*shell, []string, string) bool { return true }},
}

func init() {
	// Assigned here rather than in the literal: cmdHelp renders
	// metaCommands, and a direct reference would be an initialization
	// cycle.
	for i := range metaCommands {
		if metaCommands[i].names[0] == "\\help" {
			metaCommands[i].run = (*shell).cmdHelp
		}
	}
}

// meta dispatches one \command line; returns true on quit.
func (sh *shell) meta(line string) bool {
	fields := strings.Fields(line)
	for _, c := range metaCommands {
		for _, n := range c.names {
			if fields[0] == n {
				return c.run(sh, fields, line)
			}
		}
	}
	fmt.Println(commandsLine())
	return false
}

// commandsLine renders the one-line command summary from the table.
func commandsLine() string {
	var sb strings.Builder
	sb.WriteString("commands:")
	for _, c := range metaCommands {
		sb.WriteString(" ")
		sb.WriteString(c.usage)
	}
	return sb.String()
}

func (sh *shell) cmdHelp(fields []string, line string) bool {
	for _, c := range metaCommands {
		fmt.Printf("  %-28s %s\n", c.usage, c.help)
	}
	return false
}

func (sh *shell) cmdTables(fields []string, line string) bool {
	for _, n := range append(workload.DimensionNames(), workload.FactNames()...) {
		t := sh.data.Table(n)
		fmt.Printf("  %-24s %10d rows  %8.1f KB\n", n, t.Rows(), float64(t.SizeBytes())/1024)
	}
	return false
}

func (sh *shell) cmdDescribe(fields []string, line string) bool {
	if len(fields) < 2 {
		fmt.Println("usage: \\describe <table>")
		return false
	}
	t := sh.eng.Table(fields[1])
	if t == nil {
		fmt.Printf("unknown table %q\n", fields[1])
		return false
	}
	for _, c := range t.Columns() {
		fmt.Printf("  %-28s %s\n", c.Name(), c.Type())
	}
	return false
}

func (sh *shell) cmdGPU(fields []string, line string) bool {
	if len(fields) == 2 {
		sh.eng.SetGPUEnabled(fields[1] == "on")
	}
	fmt.Printf("GPU offload: %s\n", onOff(sh.eng.GPUEnabled()))
	return false
}

func (sh *shell) cmdMonitor(fields []string, line string) bool {
	sh.eng.Monitor().Report(os.Stdout)
	return false
}

func (sh *shell) cmdMetrics(fields []string, line string) bool {
	if err := metrics.Collect(metrics.SourcesFromEngine(sh.eng)()).WriteText(os.Stdout); err != nil {
		fmt.Println("error:", err)
	}
	return false
}

// cmdExplain handles both plain \explain (plan + prognosis, no
// execution) and \explain analyze (run the query, print the decision
// audit, then the result).
func (sh *shell) cmdExplain(fields []string, line string) bool {
	sql := strings.TrimSpace(strings.TrimPrefix(line, fields[0]))
	if len(fields) >= 2 && fields[1] == "analyze" {
		sql = strings.TrimSpace(strings.TrimPrefix(sql, "analyze"))
		if sql == "" {
			fmt.Println("usage: \\explain analyze <sql>")
			return false
		}
		rep, res, err := sh.eng.ExplainAnalyzeNamedCtx(context.Background(), "", sql)
		if err != nil {
			fmt.Println("error:", err)
			return false
		}
		rep.WriteText(os.Stdout)
		fmt.Println()
		printResult(res)
		fmt.Printf("(%d rows, modeled %v, gpu=%v)\n", res.Table.Rows(), res.Modeled, res.GPUUsed)
		return false
	}
	if sql == "" {
		fmt.Println("usage: \\explain [analyze] <sql>")
		return false
	}
	out, err := sh.eng.Explain(sql)
	if err != nil {
		fmt.Println("error:", err)
		return false
	}
	fmt.Print(out)
	return false
}

// cmdTrace handles the \trace subcommands: toggling the tracer on the
// live engine, printing the flame summary, and exporting Chrome JSON.
func (sh *shell) cmdTrace(fields []string, line string) bool {
	eng := sh.eng
	if len(fields) < 2 {
		state := "off"
		if tr := eng.Tracer(); tr != nil {
			state = fmt.Sprintf("on (%d queries, %d spans)", tr.Queries(), tr.Held())
		}
		fmt.Printf("tracing: %s\nusage: \\trace on|off|show|save <file>\n", state)
		return false
	}
	switch fields[1] {
	case "on":
		if eng.Tracer() == nil {
			eng.SetTracer(trace.New())
		}
		fmt.Println("tracing: on")
	case "off":
		eng.SetTracer(nil)
		fmt.Println("tracing: off")
	case "show":
		tr := eng.Tracer()
		if tr == nil {
			fmt.Println("tracing is off; \\trace on first")
			return false
		}
		tr.WriteFlame(os.Stdout)
	case "save":
		tr := eng.Tracer()
		if tr == nil {
			fmt.Println("tracing is off; \\trace on first")
			return false
		}
		if len(fields) < 3 {
			fmt.Println("usage: \\trace save <file>")
			return false
		}
		f, err := os.Create(fields[2])
		if err != nil {
			fmt.Println("error:", err)
			return false
		}
		err = tr.ExportChrome(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Println("error:", err)
			return false
		}
		fmt.Printf("wrote %d spans to %s (load via chrome://tracing or ui.perfetto.dev)\n",
			tr.Held(), fields[2])
	default:
		fmt.Println("usage: \\trace on|off|show|save <file>")
	}
	return false
}

// shellSeq numbers interactive statements; the derived shell-<n>
// request ID is annotated onto the query's trace spans so \trace save
// exports correlate with the printed footer.
var shellSeq int

func run(eng *engine.Engine, sql string) {
	shellSeq++
	reqID := fmt.Sprintf("shell-%d", shellSeq)
	ctx := qlog.WithRequestID(context.Background(), reqID)
	res, err := eng.QueryNamedCtxAttrs(ctx, reqID, sql)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	printResult(res)
	fmt.Printf("(%d rows, modeled %v, gpu=%v, request=%s)\n", res.Table.Rows(), res.Modeled, res.GPUUsed, reqID)
	for _, op := range res.Ops {
		if op.Op == "groupby" || op.Op == "sort" {
			fmt.Printf("  %s: %s [%v]\n", op.Op, op.Detail, op.Modeled)
		}
	}
}

func printResult(res *engine.Result) {
	const maxRows = 25
	for _, c := range res.Columns {
		fmt.Printf("%-18s", c)
	}
	fmt.Println()
	fmt.Println(strings.Repeat("-", 18*len(res.Columns)))
	n := res.Table.Rows()
	if n > maxRows {
		n = maxRows
	}
	for r := 0; r < n; r++ {
		for _, v := range res.Table.Row(r) {
			switch {
			case v.Null:
				fmt.Printf("%-18s", "NULL")
			case v.Type == columnar.Float64:
				fmt.Printf("%-18.2f", v.F)
			default:
				fmt.Printf("%-18v", v)
			}
		}
		fmt.Println()
	}
	if res.Table.Rows() > maxRows {
		fmt.Printf("... (%d more rows)\n", res.Table.Rows()-maxRows)
	}
}
