package gpu

import (
	"strings"
	"testing"

	"blugpu/internal/vtime"
)

func TestDeviceStringAndAccessors(t *testing.T) {
	d := NewDevice(7, vtime.TeslaK40())
	s := d.String()
	if !strings.Contains(s, "gpu7") || !strings.Contains(s, "12.0GB") {
		t.Errorf("String = %q", s)
	}
	if d.ID() != 7 {
		t.Error("ID wrong")
	}
	r, _ := d.Reserve(1 << 20)
	if d.Util().ReservedBytes != 1<<20 {
		t.Errorf("ReservedBytes = %d", d.Util().ReservedBytes)
	}
	if r.Size() != 1<<20 || r.Device() != d {
		t.Error("reservation accessors wrong")
	}
	if err := r.Claim(32); err != nil || r.Used() != 32 {
		t.Errorf("claim accessor wrong: used %d, err %v", r.Used(), err)
	}
	r.Release()
	if d.Util().ReservedBytes != 0 {
		t.Error("release did not return memory")
	}
	// TransferTime estimation without a copy.
	if d.TransferTime(1<<20, true) >= d.TransferTime(1<<20, false) {
		t.Error("pinned estimate should be faster")
	}
	// Event kind strings.
	for k := EventKernel; k <= EventReserveFail; k++ {
		if k.String() == "unknown" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if EventKind(99).String() != "unknown" {
		t.Error("unknown kind fallback wrong")
	}
}

func TestWithModelOption(t *testing.T) {
	slow := vtime.Default()
	slow.PCIe.PinnedBps = 1e9 // 12x slower
	fast := NewDevice(0, vtime.TeslaK40())
	slowDev := NewDevice(1, vtime.TeslaK40(), WithModel(slow))
	if slowDev.TransferTime(1<<24, true) <= fast.TransferTime(1<<24, true) {
		t.Error("WithModel not applied")
	}
}
