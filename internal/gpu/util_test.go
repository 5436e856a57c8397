package gpu

import (
	"testing"

	"blugpu/internal/vtime"
)

// TestDeviceUtilization proves busy time accumulates per kind without a
// sink attached, and that reservation occupancy tracks its peak.
func TestDeviceUtilization(t *testing.T) {
	d := NewDevice(0, vtime.Default().GPU)

	if u := d.Util(); u.Busy() != 0 || u.ReservedBytes != 0 || u.ReservedPeakBytes != 0 {
		t.Fatalf("fresh device utilization not zero: %+v", u)
	}

	res, err := d.Reserve(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Claim(8192); err != nil {
		t.Fatal(err)
	}
	h2d, err := res.CopyToDevice(8192, true)
	if err != nil {
		t.Fatal(err)
	}
	d2h, err := res.CopyFromDevice(8192, true)
	if err != nil {
		t.Fatal(err)
	}

	kr := d.RunKernel("util_test", func() vtime.Duration {
		return 3 * vtime.Millisecond
	})
	if kr.Err != nil {
		t.Fatal(kr.Err)
	}

	u := d.Util()
	if u.Kernel != kr.Modeled {
		t.Fatalf("kernel busy = %v, want %v", u.Kernel, kr.Modeled)
	}
	if u.H2D != h2d {
		t.Fatalf("h2d busy = %v, want %v", u.H2D, h2d)
	}
	if u.D2H != d2h {
		t.Fatalf("d2h busy = %v, want %v", u.D2H, d2h)
	}
	if got, want := u.Busy(), kr.Modeled+h2d+d2h; got != want {
		t.Fatalf("total busy = %v, want %v", got, want)
	}
	if u.ReservedBytes != 1<<20 || u.ReservedPeakBytes != 1<<20 {
		t.Fatalf("occupancy = %d peak %d, want 1MiB both", u.ReservedBytes, u.ReservedPeakBytes)
	}

	res.Release()
	u = d.Util()
	if u.ReservedBytes != 0 {
		t.Fatalf("occupancy after release = %d, want 0", u.ReservedBytes)
	}
	if u.ReservedPeakBytes != 1<<20 {
		t.Fatalf("peak after release = %d, want 1MiB (peak is lifetime)", u.ReservedPeakBytes)
	}
}
