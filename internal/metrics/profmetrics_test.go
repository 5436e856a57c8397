package metrics

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"blugpu/internal/monitor"
	"blugpu/internal/prof"
)

// TestCollectProf locks the blu_prof_* exposition: per-(class, phase)
// wall/alloc/count series from a deterministically seeded accountant.
func TestCollectProf(t *testing.T) {
	acct := prof.NewAccountant()
	acct.AddWall("interactive", "exec", 30*time.Millisecond)
	acct.AddWall("interactive", "exec", 10*time.Millisecond)
	acct.AddWall("reporting", "parse", 2*time.Millisecond)

	var text bytes.Buffer
	r := Collect(Sources{Monitor: monitor.New(), Prof: acct})
	if err := r.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if err := ValidateExposition(text.Bytes()); err != nil {
		t.Fatalf("prof exposition invalid: %v\n%s", err, text.String())
	}
	out := text.String()
	for _, want := range []string{
		`blu_prof_wall_seconds_total{class="interactive",phase="exec"} 0.04`,
		`blu_prof_wall_seconds_total{class="reporting",phase="parse"} 0.002`,
		`blu_prof_phases_total{class="interactive",phase="exec"} 2`,
		`blu_prof_phases_total{class="reporting",phase="parse"} 1`,
		`blu_prof_alloc_bytes_total{class="interactive",phase="exec"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

// TestCollectProfEmpty: an accountant with no recorded phases emits no
// blu_prof_* series (bare metadata would invalidate the exposition).
func TestCollectProfEmpty(t *testing.T) {
	var text bytes.Buffer
	r := Collect(Sources{Monitor: monitor.New(), Prof: prof.NewAccountant()})
	if err := r.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if err := ValidateExposition(text.Bytes()); err != nil {
		t.Fatalf("empty prof exposition invalid: %v\n%s", err, text.String())
	}
	if strings.Contains(text.String(), "blu_prof_wall_seconds_total") {
		t.Fatalf("empty accountant leaked series:\n%s", text.String())
	}
}
