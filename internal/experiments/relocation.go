package experiments

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/workload"
)

// alternatingSkew builds the Figure 9/10 input pattern: the partitions of
// one machine receive 10x the tuples of the other's, flipping every phase
// (first phase 5 minutes, then 10-minute phases, cycling).
func alternatingSkew(wl *workload.Config, engines []partition.NodeID, o RunOpts) error {
	if len(engines) != 2 {
		return fmt.Errorf("alternating skew needs 2 engines")
	}
	assign := partition.UniformAssign(engines)
	m, err := partition.NewMap(wl.Partitions, assign)
	if err != nil {
		return err
	}
	setA := m.OwnedBy(engines[0])
	setB := m.OwnedBy(engines[1])
	wl.Phases = []workload.Phase{
		{Duration: o.scaleDur(5 * time.Minute), Weight: workload.BoostWeights(wl.Partitions, setA, 10)},
		{Duration: o.scaleDur(10 * time.Minute), Weight: workload.BoostWeights(wl.Partitions, setB, 10)},
		{Duration: o.scaleDur(10 * time.Minute), Weight: workload.BoostWeights(wl.Partitions, setA, 10)},
	}
	wl.CycleFrom = 1
	return nil
}

// runRelocationThreshold runs the two-machine alternating-skew experiment
// with the given θ_r (0 disables relocation: the All-Mem baseline).
// Memory is ample: no local spilling.
func runRelocationThreshold(o RunOpts, duration time.Duration, theta float64) (*cluster.Result, error) {
	engines := []partition.NodeID{"m1", "m2"}
	wl := baseWorkload()
	o.scaleWorkload(&wl)
	if err := alternatingSkew(&wl, engines, o); err != nil {
		return nil, err
	}
	var strategy core.Strategy = core.NoAdapt{}
	if theta > 0 {
		strategy = core.NewLazyDisk(core.RelocationConfig{Threshold: theta, MinGap: 45 * time.Second})
	}
	return cluster.Run(cluster.Config{
		Engines:  engines,
		Workload: wl,
		Scale:    o.Scale,
		Duration: duration,
		Strategy: strategy,
		StoreDir: o.StoreDir,
	})
}

// Fig09 reproduces Figure 9: varying the relocation threshold θ_r under a
// worst-case alternating input skew. Throughput matches pure main-memory
// processing for every θ_r, while higher thresholds trigger many more
// relocations — i.e. pair-wise relocation is cheap and does not thrash.
func Fig09(o RunOpts) (*Report, error) {
	o = o.withDefaults()
	duration := o.scaleDur(45 * time.Minute)
	thetas := []float64{0.5, 0.6, 0.7, 0.8, 0.9}

	results := make(map[string]*cluster.Result)
	relocs := make(map[string]int)
	order := []string{"All-Mem"}
	allMem, err := runRelocationThreshold(o, duration, 0)
	if err != nil {
		return nil, err
	}
	results["All-Mem"] = allMem
	for _, th := range thetas {
		name := fmt.Sprintf("theta=%.0f%%", th*100)
		res, err := runRelocationThreshold(o, duration, th)
		if err != nil {
			return nil, err
		}
		results[name] = res
		relocs[name] = res.Relocations
		order = append(order, name)
	}

	rep := &Report{ID: "Figure 9", Title: "Relocation threshold θ_r under alternating 10x input skew (2 machines)"}
	rep.Table = throughputTableFromResults(duration, results, order)
	for _, name := range order {
		rep.AddRun(name, results[name])
	}

	final := func(name string) float64 { return results[name].Throughput.Last() }
	var minThr, maxThr float64
	for _, name := range order {
		v := final(name)
		if minThr == 0 || v < minThr {
			minThr = v
		}
		if v > maxThr {
			maxThr = v
		}
	}
	rep.Claims = append(rep.Claims,
		claimf("throughput insensitive to θ_r, matching All-Mem",
			"throughput when choosing different θ_r is almost the same, similar to pure main memory processing",
			minThr > 0 && maxThr/minThr < 1.15,
			"range %.0f..%.0f across All-Mem and all θ_r (max/min = %.2f)", minThr, maxThr, maxThr/minThr),
		claimf("higher θ_r triggers many more relocations",
			"24 relocations at θ_r=90% vs only 2 at θ_r=50%",
			relocs["theta=90%"] > relocs["theta=50%"] && relocs["theta=50%"] >= 1,
			"relocations: 50%%=%d, 60%%=%d, 70%%=%d, 80%%=%d, 90%%=%d",
			relocs["theta=50%"], relocs["theta=60%"], relocs["theta=70%"], relocs["theta=80%"], relocs["theta=90%"]),
	)
	rep.Notes = append(rep.Notes, "τ_m = 45 s (virtual), input skew flips every 10 virtual minutes (first phase 5 minutes)")
	return rep, nil
}

// Fig10 reproduces Figure 10: memory usage with vs without relocation at
// θ_r = 90%. Relocation keeps the two machines' memory balanced despite
// the alternating skew.
func Fig10(o RunOpts) (*Report, error) {
	o = o.withDefaults()
	duration := o.scaleDur(45 * time.Minute)
	withReloc, err := runRelocationThreshold(o, duration, 0.9)
	if err != nil {
		return nil, err
	}
	noReloc, err := runRelocationThreshold(o, duration, 0)
	if err != nil {
		return nil, err
	}
	results := map[string]*cluster.Result{"with-relocation": withReloc, "no-relocation": noReloc}
	rep := &Report{ID: "Figure 10", Title: "Memory usage with vs without state relocation (θ_r = 90%)"}
	rep.AddRun("with-relocation", withReloc)
	rep.AddRun("no-relocation", noReloc)
	rep.Table = memoryTable(duration/8, duration, results,
		[]string{"no-relocation", "with-relocation"}, []partition.NodeID{"m1", "m2"})

	imbalance := func(res *cluster.Result) float64 {
		// Average max/min ratio across minute samples (skipping the
		// warm-up where memory is tiny).
		a := res.Memory["m1"].Sample(duration/16, duration)
		b := res.Memory["m2"].Sample(duration/16, duration)
		var sum float64
		var n int
		for i := range a {
			hi, lo := a[i], b[i]
			if lo > hi {
				hi, lo = lo, hi
			}
			if lo <= 0 {
				continue
			}
			sum += hi / lo
			n++
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	imbWith, imbWithout := imbalance(withReloc), imbalance(noReloc)
	rep.Claims = append(rep.Claims,
		claimf("relocation keeps memory usage balanced",
			"with relocation the machines' memory stays largely balanced; without it, usage alternates dramatically",
			imbWith < imbWithout && imbWith < 1.8,
			"avg max/min memory ratio: with-relocation=%.2f, no-relocation=%.2f", imbWith, imbWithout),
		claimf("relocations actually happened",
			"state keeps moving between the machines as the skew flips",
			withReloc.Relocations >= 2,
			"%d relocations", withReloc.Relocations),
	)
	return rep, nil
}

// Fig11 reproduces Figure 11: relocation vs spill. With a 60/20/20
// initial distribution, the no-relocation run overflows the big machine
// and starts spilling mid-run; with relocation the states stay in cluster
// memory and output continues at the maximal rate.
func Fig11(o RunOpts) (*Report, error) {
	o = o.withDefaults()
	duration := o.scaleDur(60 * time.Minute)
	engines := []partition.NodeID{"m1", "m2", "m3"}
	wl := baseWorkload()
	o.scaleWorkload(&wl)
	// Threshold between the balanced per-machine share (1/3) and the
	// skewed machine's share (60%), so only the no-relocation run spills.
	threshold := projectedStateBytes(wl, duration) * 45 / 100
	run := func(strategy core.Strategy) (*cluster.Result, error) {
		return cluster.Run(cluster.Config{
			Engines:        engines,
			Workload:       wl,
			InitialWeights: []int{3, 1, 1}, // 60/20/20
			Scale:          o.Scale,
			Duration:       duration,
			Strategy:       strategy,
			LocalSpill:     true,
			Spill:          core.SpillConfig{MemThreshold: threshold, Fraction: 0.3},
			StoreDir:       o.StoreDir,
		})
	}
	withReloc, err := run(core.NewLazyDisk(core.RelocationConfig{Threshold: 0.8, MinGap: 45 * time.Second}))
	if err != nil {
		return nil, err
	}
	noReloc, err := run(core.NoAdapt{})
	if err != nil {
		return nil, err
	}
	results := map[string]*cluster.Result{"with-relocation": withReloc, "no-relocation": noReloc}
	order := []string{"with-relocation", "no-relocation"}

	rep := &Report{ID: "Figure 11", Title: "Relocation vs spill (3 machines, 60/20/20 initial distribution)"}
	rep.Table = throughputTableFromResults(duration, results, order)
	for _, name := range order {
		rep.AddRun(name, results[name])
	}

	spillsNo := noReloc.LocalSpills["m1"] + noReloc.LocalSpills["m2"] + noReloc.LocalSpills["m3"]
	spillsWith := withReloc.LocalSpills["m1"] + withReloc.LocalSpills["m2"] + withReloc.LocalSpills["m3"]
	rep.Claims = append(rep.Claims,
		claimf("with-relocation sustains a higher run-time throughput",
			"the no-relocation throughput drops once the 60% machine starts pushing states to disk",
			withReloc.Throughput.Last() > noReloc.Throughput.Last()*1.05,
			"with=%.0f vs no=%.0f", withReloc.Throughput.Last(), noReloc.Throughput.Last()),
		claimf("relocation avoids the spills entirely",
			"with-relocation keeps all states in (cluster) main memory",
			spillsWith == 0 && spillsNo > 0 && withReloc.Relocations > 0,
			"spills: with=%d (after %d relocations), no=%d", spillsWith, withReloc.Relocations, spillsNo),
	)
	rep.Notes = append(rep.Notes, fmt.Sprintf("spill threshold %d KB per machine (45%% of projected total state)", threshold/1024))
	return rep, nil
}
