package qlog

import (
	"bytes"
	"os"
	"testing"
	"time"
)

// FuzzQlogDecode: no log stream may panic the decoder, and the records it
// accepts survive a round trip — logged again, they decode to as many
// records. Seeded with testdata/qlog_golden.jsonl, whole and line by line.
func FuzzQlogDecode(f *testing.F) {
	golden, err := os.ReadFile("testdata/qlog_golden.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	for _, line := range bytes.Split(golden, []byte("\n")) {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := Decode(data)
		if err != nil {
			return
		}
		var out bytes.Buffer
		l := New(&out, WithClock(func() time.Time { return time.Unix(1_767_322_800, 0) }))
		for _, rec := range recs {
			if err := l.Log(rec); err != nil {
				t.Fatalf("decoded record does not log again: %v", err)
			}
		}
		again, err := Decode(out.Bytes())
		if err != nil || len(again) != len(recs) {
			t.Fatalf("%d records decoded; logged again they decode to %d (%v)", len(recs), len(again), err)
		}
	})
}
