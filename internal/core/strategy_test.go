package core

import (
	"testing"
	"time"

	"repro/internal/partition"
)

// rated is a standby-free engine with ten groups and an output delta.
func rated(node partition.NodeID, bytes int64, output uint64) Engine {
	return Engine{Node: node, Resident: bytes, Groups: 10, OutputDelta: output}
}

func TestNoAdaptNeverActs(t *testing.T) {
	s := NoAdapt{}
	if d := s.Decide(at(time.Hour, mem("m1", 1<<30), mem("m2", 1))); d.Kind != None {
		t.Fatalf("NoAdapt acted: %+v", d)
	}
	if s.Name() != "no-relocation" {
		t.Fatalf("Name = %q", s.Name())
	}
}

func TestLazyDiskRelocates(t *testing.T) {
	s := NewLazyDisk(relocCfg())
	d := s.Decide(at(time.Minute, mem("m1", 1000), mem("m2", 100)))
	if d.Kind != Relocate || d.Reason != ReasonImbalance {
		t.Fatalf("lazy-disk did not relocate: %+v", d)
	}
}

func TestLazyDiskHonorsMinGapBetweenDecisions(t *testing.T) {
	s := NewLazyDisk(relocCfg())
	v := at(time.Minute, mem("m1", 1000), mem("m2", 100))
	if d := s.Decide(v); d.Kind != Relocate {
		t.Fatal("first decision missing")
	}
	v.Now = v.Now.Add(10 * time.Second)
	if d := s.Decide(v); d.Kind != None {
		t.Fatalf("second decision inside τ_m: %+v", d)
	}
	v.Now = v.Now.Add(40 * time.Second)
	if d := s.Decide(v); d.Kind != Relocate {
		t.Fatal("decision after τ_m missing")
	}
}

func activeCfg() ActiveDiskConfig {
	return ActiveDiskConfig{
		Relocation:     relocCfg(),
		Lambda:         2,
		ForcedFraction: 0.3,
		MaxForcedBytes: 1000,
	}
}

func TestActiveDiskPrefersRelocation(t *testing.T) {
	s := NewActiveDisk(activeCfg())
	d := s.Decide(at(time.Minute, rated("m1", 1000, 1000), rated("m2", 100, 1)))
	if d.Kind != Relocate {
		t.Fatalf("active-disk did not relocate on imbalanced memory: %+v", d)
	}
}

func TestActiveDiskForcesSpillOnProductivityGap(t *testing.T) {
	s := NewActiveDisk(activeCfg())
	// Memory balanced (ratio 0.9 >= θ_r), productivity ratio 10 > λ=2.
	d := s.Decide(at(time.Minute, rated("m1", 1000, 1000), rated("m2", 900, 100)))
	if d.Kind != ForceSpill || d.Reason != ReasonProductivityGap {
		t.Fatalf("active-disk did not force a spill: %+v", d)
	}
	if d.Sender != "m2" {
		t.Fatalf("forced spill at %s, want m2 (least productive)", d.Sender)
	}
	if want := int64(900 * 0.3); d.Amount != want {
		t.Fatalf("amount = %d, want %d", d.Amount, want)
	}
}

func TestActiveDiskNoSpillWhenProductivityBalanced(t *testing.T) {
	s := NewActiveDisk(activeCfg())
	v := at(time.Minute, rated("m1", 1000, 150), rated("m2", 900, 100)) // ratio 1.5 <= 2
	if d := s.Decide(v); d.Kind != None {
		t.Fatalf("acted on balanced productivity: %+v", d)
	}
}

func TestActiveDiskForcedSpillCap(t *testing.T) {
	cfg := activeCfg()
	cfg.MaxForcedBytes = 400
	s := NewActiveDisk(cfg)
	v := at(0, rated("m1", 1000, 1000), rated("m2", 900, 1))
	var total int64
	for i := 0; i < 10; i++ {
		v.Now = v.Now.Add(time.Minute)
		d := s.Decide(v)
		if d.Kind == None {
			continue
		}
		if d.Kind != ForceSpill {
			t.Fatalf("unexpected decision %+v", d)
		}
		total += d.Amount
	}
	if total != 400 {
		t.Fatalf("total forced = %d, want capped at 400", total)
	}
}

func TestActiveDiskZeroProductivityFloor(t *testing.T) {
	s := NewActiveDisk(activeCfg())
	// minR has zero output: ratio is infinite, spill should trigger.
	d := s.Decide(at(time.Minute, rated("m1", 1000, 500), rated("m2", 950, 0)))
	if d.Kind != ForceSpill || d.Sender != "m2" {
		t.Fatalf("zero-productivity machine not forced to spill: %+v", d)
	}
	// Everyone idle: no action.
	s2 := NewActiveDisk(activeCfg())
	if d := s2.Decide(at(time.Minute, rated("m1", 1000, 0), rated("m2", 950, 0))); d.Kind != None {
		t.Fatalf("acted on fully idle cluster: %+v", d)
	}
}
