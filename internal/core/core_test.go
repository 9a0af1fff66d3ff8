package core

import (
	"testing"
	"time"

	"repro/internal/partition"
	"repro/internal/vclock"
)

func TestModeString(t *testing.T) {
	cases := map[Mode]string{
		NormalMode:   "normal_mode",
		SpillMode:    "ss_mode",
		RelocateMode: "sr_mode",
		Mode(99):     "unknown_mode",
	}
	for m, want := range cases {
		if got := m.String(); got != want {
			t.Errorf("Mode(%d).String() = %q, want %q", m, got, want)
		}
	}
}

func TestProductivity(t *testing.T) {
	g := GroupStats{Size: 100, Output: 50}
	if p := g.Productivity(); p != 0.5 {
		t.Fatalf("Productivity = %v, want 0.5", p)
	}
	empty := GroupStats{Size: 0, Output: 10}
	if p := empty.Productivity(); p != 0 {
		t.Fatalf("empty group Productivity = %v, want 0", p)
	}
}

func TestProductivityRate(t *testing.T) {
	e := Engine{Groups: 10, OutputDelta: 500}
	if r := e.ProductivityRate(); r != 50 {
		t.Fatalf("ProductivityRate = %v, want 50", r)
	}
	if r := (Engine{}).ProductivityRate(); r != 0 {
		t.Fatalf("zero-group rate = %v, want 0", r)
	}
}

func relocCfg() RelocationConfig {
	return RelocationConfig{Threshold: 0.8, MinGap: 45 * time.Second}
}

// mem is an engine holding bytes of its own state and nothing on standby.
func mem(node partition.NodeID, bytes int64) Engine { return Engine{Node: node, Resident: bytes} }

func at(now time.Duration, engines ...Engine) View {
	return View{Now: vclock.Time(now), Engines: engines}
}

func TestDecideRelocationTriggers(t *testing.T) {
	d := relocation(at(time.Minute, mem("m1", 1000), mem("m2", 200)), relocCfg(), vclock.Time(-1<<62))
	if d.Kind != Relocate {
		t.Fatal("no relocation decided")
	}
	if d.Sender != "m1" || d.Receiver != "m2" {
		t.Fatalf("pair = %s->%s", d.Sender, d.Receiver)
	}
	if d.Amount != 400 {
		t.Fatalf("amount = %d, want (1000-200)/2 = 400", d.Amount)
	}
}

func TestDecideRelocationRespectsThreshold(t *testing.T) {
	v := at(time.Minute, mem("m1", 1000), mem("m2", 900)) // ratio 0.9 >= 0.8
	if d := relocation(v, relocCfg(), vclock.Time(-1<<62)); d.Kind != None {
		t.Fatalf("relocation decided at balanced load: %+v", d)
	}
}

func TestDecideRelocationRespectsMinGap(t *testing.T) {
	last := vclock.Time(time.Minute)
	v := at(time.Minute+30*time.Second, mem("m1", 1000), mem("m2", 100)) // < 45s gap
	if d := relocation(v, relocCfg(), last); d.Kind != None {
		t.Fatalf("relocation decided inside τ_m: %+v", d)
	}
	v.Now = last.Add(46 * time.Second)
	if d := relocation(v, relocCfg(), last); d.Kind != Relocate {
		t.Fatal("relocation not decided after τ_m elapsed")
	}
}

func TestDecideRelocationEdgeCases(t *testing.T) {
	past := vclock.Time(-1 << 62)
	if d := relocation(at(time.Hour), relocCfg(), past); d.Kind != None {
		t.Fatal("relocation with no engines")
	}
	if d := relocation(at(time.Hour, mem("m1", 100)), relocCfg(), past); d.Kind != None {
		t.Fatal("relocation with one engine")
	}
	if d := relocation(at(time.Hour, mem("m1", 0), mem("m2", 0)), relocCfg(), past); d.Kind != None {
		t.Fatal("relocation with zero memory everywhere")
	}
}

func TestDecideRelocationHalvesGap(t *testing.T) {
	// Invariant: after moving the decided amount, both machines sit at
	// (max+min)/2.
	v := at(time.Minute, mem("a", 1_000_000), mem("b", 300_000), mem("c", 600_000))
	d := relocation(v, relocCfg(), vclock.Time(-1<<62))
	if d.Kind != Relocate {
		t.Fatal("no relocation decided")
	}
	if d.Sender != "a" || d.Receiver != "b" {
		t.Fatalf("pair = %s->%s, want a->b", d.Sender, d.Receiver)
	}
	if after := 1_000_000 - d.Amount; after != 300_000+d.Amount {
		t.Fatalf("post-move loads unequal: %d vs %d", after, 300_000+d.Amount)
	}
}

func TestSpillAmount(t *testing.T) {
	cfg := SpillConfig{MemThreshold: 1000, Fraction: 0.3}
	if a := cfg.SpillAmount(900); a != 0 {
		t.Fatalf("spill below threshold: %d", a)
	}
	if a := cfg.SpillAmount(2000); a != 1000 {
		// 30% of 2000 is 600 but the overflow is 1000, so push 1000.
		t.Fatalf("SpillAmount(2000) = %d, want 1000", a)
	}
	if a := cfg.SpillAmount(1100); a != 330 {
		t.Fatalf("SpillAmount(1100) = %d, want 330", a)
	}
}

func TestSpillAmountNeverExceedsResident(t *testing.T) {
	cfg := SpillConfig{MemThreshold: 10, Fraction: 5.0}
	if a := cfg.SpillAmount(100); a != 100 {
		t.Fatalf("SpillAmount = %d, want clamped to 100", a)
	}
}

func TestSpillAmountDisabledThreshold(t *testing.T) {
	cfg := SpillConfig{MemThreshold: 0, Fraction: 0.3}
	if a := cfg.SpillAmount(1 << 30); a != 0 {
		t.Fatalf("spill with disabled threshold: %d", a)
	}
}
