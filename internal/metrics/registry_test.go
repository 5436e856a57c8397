package metrics

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestCounterAccumulatesAndIgnoresNegative(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "help").With(L("k", "v"))
	c.Add(2)
	c.Add(-5)
	c.AddUint(3)
	var b bytes.Buffer
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `c_total{k="v"} 5`) {
		t.Fatalf("want c_total 5, got:\n%s", b.String())
	}
}

func TestGaugeSet(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("g", "help").With()
	g.Set(1.5)
	g.Set(-2.25)
	var b bytes.Buffer
	r.WriteText(&b)
	if !strings.Contains(b.String(), "g -2.25\n") {
		t.Fatalf("want g -2.25, got:\n%s", b.String())
	}
}

func TestHistogramSetCumulativeSortsBounds(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "help").With(L("x", "1"))
	h.SetCumulative([]Bucket{{UpperBound: 4, CumCount: 9}, {UpperBound: 1, CumCount: 3}}, 12.5, 9)
	var b bytes.Buffer
	r.WriteText(&b)
	out := b.String()
	i1 := strings.Index(out, `le="1"`)
	i4 := strings.Index(out, `le="4"`)
	if i1 < 0 || i4 < 0 || i1 > i4 {
		t.Fatalf("buckets not sorted ascending:\n%s", out)
	}
	if err := ValidateExposition(b.Bytes()); err != nil {
		t.Fatal(err)
	}
}

func TestFamilyTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "h")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on type redefinition")
		}
	}()
	r.Gauge("m", "h")
}

func TestLabelOrderIndependence(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "h")
	c.With(L("a", "1"), L("b", "2")).Add(1)
	c.With(L("b", "2"), L("a", "1")).Add(1)
	var b bytes.Buffer
	r.WriteText(&b)
	if !strings.Contains(b.String(), `c_total{a="1",b="2"} 2`) {
		t.Fatalf("label order should normalize to one series:\n%s", b.String())
	}
}

func TestSanitizeName(t *testing.T) {
	cases := map[string]string{
		"ok_name:x9":   "ok_name:x9",
		"has space":    "has_space",
		"kernel-v2":    "kernel_v2",
		"9starts":      "_9starts",
		"":             "_",
		"uni·code":     "uni_code",
		"a\"quote\\nl": "a_quote_nl",
	}
	for in, want := range cases {
		if got := SanitizeName(in); got != want {
			t.Errorf("SanitizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestRegistryConcurrent drives counters, gauges and histograms from
// many goroutines while the text form renders — the race-detector
// target for this package.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "h")
	g := r.Gauge("g", "h")
	h := r.Histogram("h_seconds", "h")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lbl := L("w", fmt.Sprint(w%4))
			for i := 0; i < 500; i++ {
				c.With(lbl).Add(1)
				g.With(lbl).Set(float64(i))
				h.With(lbl).SetCumulative([]Bucket{{UpperBound: 1, CumCount: uint64(i)}}, float64(i), uint64(i))
				if i%100 == 0 {
					var b bytes.Buffer
					if err := r.WriteText(&b); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	var b bytes.Buffer
	r.WriteText(&b)
	if !strings.Contains(b.String(), `c_total{w="0"} 1000`) {
		t.Fatalf("concurrent adds lost updates:\n%s", b.String())
	}
	if err := ValidateExposition(b.Bytes()); err != nil {
		t.Fatal(err)
	}
}

// TestEmptyFamilyOmitted: declaring a family without recording any
// series must render nothing — metadata-only output fails validation and
// says nothing.
func TestEmptyFamilyOmitted(t *testing.T) {
	r := NewRegistry()
	r.Counter("declared_but_unused_total", "h")
	r.Counter("used_total", "h").With().Add(1)
	var b bytes.Buffer
	r.WriteText(&b)
	if strings.Contains(b.String(), "declared_but_unused_total") {
		t.Fatalf("empty family leaked into exposition:\n%s", b.String())
	}
	var js bytes.Buffer
	r.WriteJSON(&js)
	if strings.Contains(js.String(), "declared_but_unused_total") {
		t.Fatalf("empty family leaked into JSON:\n%s", js.String())
	}
	if err := ValidateExposition(b.Bytes()); err != nil {
		t.Fatal(err)
	}
}
