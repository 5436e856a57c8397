//go:build !race

package expr

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestRowLoopsMakeNoCalls disassembles the package's test binary and holds
// the row loops to what rows.go promises: no instruction compiled from
// rows.go — in a loop's own body or inlined into a caller — is a call
// other than a bounds-check panic, and no function of the package calls
// b2u, which must always inline. Every function rows.go declares must show
// up in the binary, so the check cannot pass by finding nothing. The race
// detector instruments every load with a call, hence the build tag.
func TestRowLoopsMakeNoCalls(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	// go test strips the binaries it runs, so this one is rebuilt with its
	// symbols: the same package, compiled the same way.
	bin := filepath.Join(t.TempDir(), "expr.test")
	if out, err := exec.Command(gobin, "test", "-c", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go test -c: %v\n%s", err, out)
	}
	dump, err := exec.Command(gobin, "tool", "objdump", "-s", `^blugpu/internal/expr\.`, bin).CombinedOutput()
	if err != nil {
		t.Fatalf("go tool objdump: %v\n%s", err, dump)
	}
	loops := rowLoops(t)
	seen := map[string]bool{}
	var fn string
	for _, line := range strings.Split(string(dump), "\n") {
		if sym, ok := strings.CutPrefix(line, "TEXT "); ok {
			fn, _, _ = strings.Cut(sym, "(SB)")
			continue
		}
		f := strings.Split(strings.TrimSpace(line), "\t")
		if len(f) < 4 {
			continue
		}
		inst := f[len(f)-1]
		callee, isCall := strings.CutPrefix(inst, "CALL ")
		if isCall && strings.HasPrefix(callee, "blugpu/internal/expr.b2u(") {
			t.Errorf("%s calls b2u (%s)", fn, f[0])
		}
		file, ln, _ := strings.Cut(f[0], ":")
		n, _ := strconv.Atoi(ln)
		if file != "rows.go" {
			continue
		}
		loop := loops.at(n)
		seen[loop] = true
		if isCall && !strings.HasPrefix(callee, "runtime.panic") {
			t.Errorf("%s: rows.go:%d (%s) makes a call: %s", fn, n, loop, inst)
		}
	}
	for _, l := range loops {
		// b2u leaves no instruction of its own: its SETcc is its caller's.
		if !seen[l.name] && l.name != "b2u" {
			t.Errorf("rows.go's %s is not in the test binary", l.name)
		}
	}
}

type loopSpan struct {
	name     string
	from, to int
}

type loopSpans []loopSpan

func (s loopSpans) at(line int) string {
	for _, l := range s {
		if l.from <= line && line <= l.to {
			return l.name
		}
	}
	return "?"
}

// rowLoops lists the functions rows.go declares, with their line spans.
func rowLoops(t *testing.T) loopSpans {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "rows.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out loopSpans
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			out = append(out, loopSpan{fd.Name.Name, fset.Position(fd.Pos()).Line, fset.Position(fd.End()).Line})
		}
	}
	return out
}
