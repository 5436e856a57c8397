package trace

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"blugpu/internal/vtime"
)

func ringEntry(id string, wall time.Duration, slow bool) RingEntry {
	return RingEntry{
		RequestID: id,
		Query:     "q-" + id,
		Class:     "simple",
		Seq:       1,
		Wall:      wall,
		Slow:      slow,
		Spans: []Span{{
			Query: 1, Cat: "query", Name: "q-" + id,
			Start: 0, End: vtime.Time(0.001),
			WallStart: time.Unix(100, 0), WallEnd: time.Unix(100, 0).Add(wall),
			Attrs: []Attr{{Key: "request_id", Str: id}},
		}},
	}
}

func TestRingEvictionAndLookup(t *testing.T) {
	r := NewRing(4, 2)
	for i := 0; i < 6; i++ {
		r.Add(ringEntry(fmt.Sprintf("r%d", i), time.Duration(i)*time.Millisecond, false))
	}
	added, retained, slow := r.Stats()
	if added != 6 || retained != 4 || slow != 0 {
		t.Fatalf("stats = %d/%d/%d, want 6/4/0", added, retained, slow)
	}
	// r0 and r1 were overwritten; r2..r5 remain, newest first.
	if _, ok := r.Get("r0"); ok {
		t.Fatal("r0 must be evicted")
	}
	if _, ok := r.Get("r5"); !ok {
		t.Fatal("r5 must be retained")
	}
	recent := r.Recent()
	if len(recent) != 4 || recent[0].RequestID != "r5" || recent[3].RequestID != "r2" {
		ids := make([]string, len(recent))
		for i, e := range recent {
			ids[i] = e.RequestID
		}
		t.Fatalf("recent order = %v, want [r5 r4 r3 r2]", ids)
	}
}

func TestRingSlowRetentionOutlivesEviction(t *testing.T) {
	r := NewRing(2, 2)
	r.Add(ringEntry("slow-a", 300*time.Millisecond, true))
	r.Add(ringEntry("slow-b", 500*time.Millisecond, true))
	// Flood the recency ring so both slow entries are overwritten there.
	for i := 0; i < 8; i++ {
		r.Add(ringEntry(fmt.Sprintf("fast%d", i), time.Millisecond, false))
	}
	for _, id := range []string{"slow-a", "slow-b"} {
		if _, ok := r.Get(id); !ok {
			t.Fatalf("%s must survive via the slow set", id)
		}
	}
	slow := r.Slow()
	if len(slow) != 2 || slow[0].RequestID != "slow-b" || slow[1].RequestID != "slow-a" {
		t.Fatalf("slow set must be sorted slowest-first, got %+v", slow)
	}
	// A third slow entry evicts the fastest of the retained two.
	r.Add(ringEntry("slow-c", 400*time.Millisecond, true))
	if _, ok := r.Get("slow-a"); ok {
		t.Fatal("slow-a (fastest) must be evicted from a full slow set")
	}
	if _, ok := r.Get("slow-c"); !ok {
		t.Fatal("slow-c must be retained")
	}
}

// TestExportChromeEntriesBytes pins the ring export byte for byte: the
// injected request_id first (empty when the entry has none), a span
// attribute of that name and a repeated key each suffixed with their
// index, escaped strings, and a wall event only for a span with wall
// bounds, its ts relative to the earliest wall start; a span that ends
// before it starts has dur 0.
func TestExportChromeEntriesBytes(t *testing.T) {
	wall := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	entries := []RingEntry{
		{RequestID: "req-1", Spans: []Span{
			{Query: 1, Cat: "query", Name: "q \"one\"", Start: 0, End: vtime.Time(0.002),
				WallStart: wall.Add(time.Millisecond), WallEnd: wall.Add(3 * time.Millisecond),
				Attrs: []Attr{Str("request_id", "client"), Int("rows", 4)}},
			{Query: 1, Depth: 1, Cat: "gpu", Name: "attempt", Start: vtime.Time(0.0005), End: vtime.Time(0.001),
				Attrs: []Attr{Str("fault", "kernel"), Str("fault", "h2d\n\tline\x01"), Int("device", 0)}},
		}},
		{Spans: []Span{
			{Query: 2, Cat: "query", Name: "q2", Start: vtime.Time(0.003), End: vtime.Time(0.0035),
				WallStart: wall, WallEnd: wall.Add(500 * time.Microsecond)},
			{Query: 2, Depth: 1, Cat: "op", Name: "backwards", Start: vtime.Time(0.0035), End: vtime.Time(0.003)},
		}},
	}
	const want = `[
{"name":"q \"one\"","cat":"query","ph":"X","ts":0.000,"dur":2000.000,"pid":1,"tid":0,"args":{"request_id":"req-1","request_id#0":"client","rows":4}},
{"name":"q \"one\"","cat":"wall-query","ph":"X","ts":1000.000,"dur":2000.000,"pid":1,"tid":100,"args":{"request_id":"req-1","request_id#0":"client","rows":4}},
{"name":"attempt","cat":"gpu","ph":"X","ts":500.000,"dur":500.000,"pid":1,"tid":1,"args":{"request_id":"req-1","fault":"kernel","fault#1":"h2d\n\tline\u0001","device":0}},
{"name":"q2","cat":"query","ph":"X","ts":3000.000,"dur":500.000,"pid":2,"tid":0,"args":{"request_id":""}},
{"name":"q2","cat":"wall-query","ph":"X","ts":0.000,"dur":500.000,"pid":2,"tid":100,"args":{"request_id":""}},
{"name":"backwards","cat":"op","ph":"X","ts":3500.000,"dur":0.000,"pid":2,"tid":1,"args":{"request_id":""}}
]
`
	var buf bytes.Buffer
	if err := ExportChromeEntries(&buf, entries); err != nil {
		t.Fatal(err)
	}
	if buf.String() != want {
		t.Errorf("ring export moved:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func TestExportChromeEntriesValidates(t *testing.T) {
	r := NewRing(8, 4)
	r.Add(ringEntry("req-1", 2*time.Millisecond, false))
	r.Add(ringEntry("req-2", 3*time.Millisecond, true))
	var buf bytes.Buffer
	if err := ExportChromeEntries(&buf, r.Recent()); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChrome(buf.Bytes()); err != nil {
		t.Fatalf("ring export fails the Chrome validator: %v\n%s", err, buf.Bytes())
	}
	out := buf.String()
	// Every span contributes a modeled event and a wall event, each
	// carrying the request ID.
	if got := bytes.Count(buf.Bytes(), []byte(`"request_id":"req-1"`)); got != 2 {
		t.Fatalf("req-1 appears in %d events, want 2 (vtime + wall):\n%s", got, out)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"cat":"wall-query"`)) {
		t.Fatalf("missing wall-track event:\n%s", out)
	}
}

// TestRingConcurrentStress drives adds, lookups and exports in
// parallel; run under -race this pins the locking discipline.
func TestRingConcurrentStress(t *testing.T) {
	r := NewRing(32, 8)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := fmt.Sprintf("w%d-%d", w, i)
				r.Add(ringEntry(id, time.Duration(i)*time.Microsecond, i%17 == 0))
			}
		}(w)
	}
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				r.Get(fmt.Sprintf("w%d-%d", w, i))
				r.Recent()
				r.Slow()
				r.Stats()
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			var buf bytes.Buffer
			if entries := r.Recent(); len(entries) > 0 {
				ExportChromeEntries(&buf, entries)
			}
		}
	}()
	wg.Wait()
	added, retained, slow := r.Stats()
	if added != 2000 {
		t.Fatalf("added = %d, want 2000", added)
	}
	if retained != 32 || slow > 8 {
		t.Fatalf("retention bounds broken: retained=%d slow=%d", retained, slow)
	}
}

func TestRingNilSafe(t *testing.T) {
	var r *Ring
	r.Add(ringEntry("x", time.Millisecond, true))
	if _, ok := r.Get("x"); ok {
		t.Fatal("nil ring cannot retain")
	}
	if r.Recent() != nil || r.Slow() != nil {
		t.Fatal("nil ring must return nil slices")
	}
}
