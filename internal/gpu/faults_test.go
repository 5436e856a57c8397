package gpu

import (
	"errors"
	"testing"

	"blugpu/internal/fault"
	"blugpu/internal/vtime"
)

type faultEventSink struct{ faults []string }

func (s *faultEventSink) RecordGPUEvent(e Event) {
	if e.Kind == EventFault {
		s.faults = append(s.faults, e.Name)
	}
}

func TestInjectedReserveFault(t *testing.T) {
	inj := fault.New(fault.Config{Seed: 1, Reserve: 1})
	sink := &faultEventSink{}
	d := NewDevice(0, vtime.TeslaK40(), WithFaults(inj), WithSink(sink))
	_, err := d.Reserve(1 << 20)
	if !errors.Is(err, ErrOutOfMemory) || !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrOutOfMemory+ErrInjected, got %v", err)
	}
	if d.Util().ReservedBytes != 0 {
		t.Error("faulted reservation changed memory accounting")
	}
	if len(sink.faults) != 1 || sink.faults[0] != "reserve" {
		t.Errorf("fault events = %v, want [reserve]", sink.faults)
	}
}

func TestInjectedTransferFaultLeavesDataUntouched(t *testing.T) {
	inj := fault.New(fault.Config{Seed: 2, H2D: 1, D2H: 1})
	sink := &faultEventSink{}
	d := NewDevice(0, vtime.TeslaK40(), WithFaults(inj), WithSink(sink))
	res, err := d.Reserve(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Release()
	if err := res.Claim(32); err != nil {
		t.Fatal(err)
	}
	if _, err := res.CopyToDevice(32, false); !errors.Is(err, ErrTransfer) || !errors.Is(err, ErrInjected) {
		t.Fatalf("h2d: want ErrTransfer+ErrInjected, got %v", err)
	}
	if _, err := res.CopyFromDevice(32, false); !errors.Is(err, ErrTransfer) {
		t.Fatalf("d2h: want ErrTransfer, got %v", err)
	}
	// A faulted transfer fires before anything moves or is counted.
	if c, u := d.Counters(), d.Util(); c.Transfers != 0 || u.H2D != 0 || u.D2H != 0 {
		t.Fatalf("faulted transfers were counted: %+v %+v", c, u)
	}
	if res.Used() != 32 {
		t.Fatalf("faulted transfers changed the claim: used %d, want 32", res.Used())
	}
	if len(sink.faults) != 2 || sink.faults[0] != "h2d" || sink.faults[1] != "d2h" {
		t.Errorf("fault events = %v, want [h2d d2h]", sink.faults)
	}
}

func TestInjectedKernelFaultSkipsBody(t *testing.T) {
	inj := fault.New(fault.Config{Seed: 3, Kernel: 1})
	d := NewDevice(0, vtime.TeslaK40(), WithFaults(inj))
	ran := false
	kr := d.RunKernel("k", func() vtime.Duration {
		ran = true
		return 0
	})
	if !errors.Is(kr.Err, ErrKernelFault) || !errors.Is(kr.Err, ErrInjected) {
		t.Fatalf("want ErrKernelFault+ErrInjected, got %v", kr.Err)
	}
	if ran {
		t.Error("faulted kernel body still ran")
	}
	if d.Outstanding() != 0 {
		t.Error("faulted kernel left outstanding count nonzero")
	}
}

func TestDeadDevice(t *testing.T) {
	inj := fault.New(fault.Config{Seed: 4})
	d := NewDevice(0, vtime.TeslaK40(), WithFaults(inj))
	if !d.Alive() {
		t.Fatal("device should start alive")
	}
	inj.KillDevice(0)
	if d.Alive() {
		t.Fatal("killed device reports alive")
	}
	if _, err := d.Reserve(1 << 20); !errors.Is(err, ErrDeviceLost) || !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrDeviceLost+ErrInjected, got %v", err)
	}
	inj.ReviveDevice(0)
	if !d.Alive() {
		t.Fatal("revived device reports dead")
	}
	res, err := d.Reserve(1 << 20)
	if err != nil {
		t.Fatalf("revived device should reserve: %v", err)
	}
	res.Release()
}

func TestNoInjectorNeverFaults(t *testing.T) {
	d := NewDevice(0, vtime.TeslaK40())
	if !d.Alive() {
		t.Error("device without injector should be alive")
	}
	res, err := d.Reserve(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	res.Release()
}
