package main

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestSuiteListsAgree pins the three places a suite is named to each
// other: the table `all` runs, the usage text, and the suite list in
// the Makefile comment above the `smoke` target that runs `all`.
func TestSuiteListsAgree(t *testing.T) {
	var table []string
	for _, s := range suites {
		table = append(table, s.name)
	}
	want := strings.Join(table, " ")

	var buf bytes.Buffer
	usage(&buf)
	var listed []string
	for _, m := range regexp.MustCompile(`(?m)^  (\S+) `).FindAllStringSubmatch(buf.String(), -1) {
		listed = append(listed, m[1])
	}
	if got := strings.Join(listed, " "); got != want {
		t.Errorf("usage lists suites %q, table has %q", got, want)
	}

	mk, err := os.ReadFile("../../Makefile")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^# suites: (.+)$`).FindSubmatch(mk)
	if m == nil {
		t.Fatal("Makefile: no `# suites: ...` line above the smoke target")
	}
	if got := string(m[1]); got != want {
		t.Errorf("Makefile names suites %q, table has %q", got, want)
	}
	if !regexp.MustCompile(`(?m)^smoke:\n(\t.*\n)*\t.*cmd/blucheck .*\ball$`).Match(mk) {
		t.Error("Makefile: the smoke recipe does not run `blucheck ... all`")
	}
}
