package plan

import (
	"fmt"
	"testing"

	"blugpu/internal/sqlparse"
	"blugpu/internal/workload"
)

// FuzzParsePlan mutates SQL text — seeded with the 146 workload
// statements — through the two stages every request's bytes reach:
// sqlparse.Parse and Build. Neither may panic, whatever the input, and a
// statement both accept must survive print → re-parse: the rendering is
// a fixed point and lowers to the identical plan.
func FuzzParsePlan(f *testing.F) {
	for _, q := range append(workload.BDInsights(), workload.CognosROLAP()...) {
		f.Add(q.SQL)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			t.Skip()
		}
		p, err := Build(stmt)
		if err != nil {
			t.Skip()
		}
		printed := stmt.String()
		again, err := sqlparse.Parse(printed)
		if err != nil {
			t.Fatalf("accepted %q, but its rendering %q does not parse: %v", sql, printed, err)
		}
		if again.String() != printed {
			t.Fatalf("rendering of %q is not a fixed point:\n%s\n%s", sql, printed, again.String())
		}
		p2, err := Build(again)
		if err != nil {
			t.Fatalf("planned %q, but not its rendering %q: %v", sql, printed, err)
		}
		if got, want := fmt.Sprint(p2.Root, p2.Output), fmt.Sprint(p.Root, p.Output); got != want {
			t.Fatalf("%q and its rendering %q plan differently:\n%s\n%s", sql, printed, want, got)
		}
	})
}
