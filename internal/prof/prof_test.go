package prof

import (
	"context"
	"runtime/pprof"
	"sync"
	"testing"
	"time"
)

func TestAccountantAddWallAndSnapshotOrder(t *testing.T) {
	a := NewAccountant()
	a.AddWall("Simple", "queue_wait", 2*time.Millisecond)
	a.AddWall("Complex", "exec", 5*time.Millisecond)
	a.AddWall("Complex", "exec", 5*time.Millisecond)
	a.AddWall("Complex", "admission", time.Millisecond)

	snap := a.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("got %d cells, want 3: %+v", len(snap), snap)
	}
	// Sorted by class then phase.
	want := []struct {
		class, phase string
		count        uint64
		wall         float64
	}{
		{"Complex", "admission", 1, 0.001},
		{"Complex", "exec", 2, 0.010},
		{"Simple", "queue_wait", 1, 0.002},
	}
	for i, w := range want {
		g := snap[i]
		if g.Class != w.class || g.Phase != w.phase || g.Count != w.count {
			t.Fatalf("cell %d = %+v, want %+v", i, g, w)
		}
		if diff := g.WallSeconds - w.wall; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("cell %d wall = %v, want %v", i, g.WallSeconds, w.wall)
		}
	}

	// nil accountant: everything is a no-op.
	var nilAcct *Accountant
	nilAcct.AddWall("x", "y", time.Second)
	if s := nilAcct.Snapshot(); s != nil {
		t.Fatalf("nil snapshot = %v, want nil", s)
	}
}

func TestPhaseRecordsWallAllocAndLabels(t *testing.T) {
	a := NewAccountant()
	ctx := WithRequest(context.Background(), a, "Intermediate", "req-1")

	var sawClass, sawPhase, sawReq string
	var sink [][]byte
	d, err := Phase(ctx, "exec", func(ctx context.Context) error {
		lbls := func(k string) string {
			v, _ := pprof.Label(ctx, k)
			return v
		}
		sawClass, sawPhase, sawReq = lbls(LabelClass), lbls(LabelPhase), lbls(LabelRequest)
		sink = append(sink, make([]byte, 1<<20))
		time.Sleep(2 * time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = sink
	if sawClass != "Intermediate" || sawPhase != "exec" || sawReq != "req-1" {
		t.Fatalf("labels = %q/%q/%q", sawClass, sawPhase, sawReq)
	}
	if d < 2*time.Millisecond {
		t.Fatalf("phase duration %v < slept 2ms", d)
	}
	snap := a.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("got %d cells, want 1", len(snap))
	}
	c := snap[0]
	if c.Class != "Intermediate" || c.Phase != "exec" || c.Count != 1 {
		t.Fatalf("cell = %+v", c)
	}
	if c.WallSeconds != d.Seconds() {
		t.Fatalf("accountant wall %v != returned duration %v — the two must be the same value", c.WallSeconds, d.Seconds())
	}
	if c.AllocBytes < 1<<20 {
		t.Fatalf("alloc delta %d < the 1MB allocated in-phase", c.AllocBytes)
	}
}

func TestPhaseWithoutAccountStillRuns(t *testing.T) {
	ran := false
	d, err := Phase(context.Background(), "exec", func(ctx context.Context) error {
		ran = true
		time.Sleep(time.Millisecond)
		return nil
	})
	if err != nil || !ran {
		t.Fatalf("ran=%v err=%v", ran, err)
	}
	if d < time.Millisecond {
		t.Fatalf("duration %v < slept 1ms", d)
	}
	if a, class := FromContext(context.Background()); a != nil || class != "" {
		t.Fatalf("FromContext on empty ctx = %v, %q", a, class)
	}
}

func TestPhasePropagatesError(t *testing.T) {
	a := NewAccountant()
	ctx := WithRequest(context.Background(), a, "Simple", "req-2")
	wantErr := context.DeadlineExceeded
	_, err := Phase(ctx, "exec", func(ctx context.Context) error { return wantErr })
	if err != wantErr {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	// The phase is still charged: work happened even though it failed.
	if snap := a.Snapshot(); len(snap) != 1 || snap[0].Count != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestAccountantConcurrent(t *testing.T) {
	a := NewAccountant()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := WithRequest(context.Background(), a, "Simple", "req")
			for i := 0; i < 50; i++ {
				Phase(ctx, "exec", func(ctx context.Context) error { return nil })
				a.AddWall("Simple", "queue_wait", time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	snap := a.Snapshot()
	var execCount uint64
	for _, c := range snap {
		if c.Phase == "exec" {
			execCount = c.Count
		}
	}
	if execCount != 400 {
		t.Fatalf("exec count = %d, want 400", execCount)
	}
}
