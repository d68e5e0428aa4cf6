package experiments

import (
	"fmt"

	"mil/internal/code"
	"mil/internal/energy"
	"mil/internal/sim"
	"mil/internal/workload"
)

// Figure1 reproduces the DRAM power-breakdown motivation: the share of each
// energy component for the most bus-intensive point of the suite on both
// technologies. The paper's Figure 1 (from a vendor brochure) reports the
// IO interface at 42% of DDR4 power at peak streaming; at realistic
// utilizations the share is lower but still first-order.
func (r *Runner) Figure1() (*Table, error) {
	t := &Table{
		ID:    "Figure 1",
		Title: "DRAM energy breakdown by component (baseline coding)",
		Note: "Paper: IO is 42% of DDR4 module power at peak. Here: the model's " +
			"breakdown at the suite's most bus-intensive benchmark per system.",
		Header: []string{"system", "benchmark", "background", "act/pre", "rd/wr", "refresh", "IO"},
	}
	for _, system := range []sim.SystemKind{sim.Server, sim.Mobile} {
		names, err := r.suiteSorted(system)
		if err != nil {
			return nil, err
		}
		busiest := names[len(names)-1]
		res, err := r.get(system, "baseline", busiest, 0)
		if err != nil {
			return nil, err
		}
		d := res.DRAM
		tot := d.Total()
		t.Rows = append(t.Rows, []string{
			system.String(), busiest,
			pct(d.Background / tot), pct(d.ActPre / tot), pct(d.RdWr / tot),
			pct(d.Refresh / tot), pct(d.IO / tot),
		})
	}
	return t, nil
}

// Figure2 reproduces the motivating experiment: always-on (8,17) 3-LWC
// versus the DBI baseline for CG and GUPS on the DDR4 system.
func (r *Runner) Figure2() (*Table, error) {
	t := &Table{
		ID:    "Figure 2",
		Title: "Always-on 3-LWC vs DBI on CG and GUPS (DDR4)",
		Note: "Paper: 3-LWC cuts IO energy 1.7x (CG) and 3.1x (GUPS) but inflates " +
			"execution time 14% and 42%, leaving marginal system-energy savings.",
		Header: []string{"benchmark", "exec time (vs DBI)", "IO energy (vs DBI)", "system energy (vs DBI)"},
	}
	r.Prefetch(
		Spec{System: sim.Server, Scheme: "baseline", Bench: "CG"},
		Spec{System: sim.Server, Scheme: "lwc3", Bench: "CG"},
		Spec{System: sim.Server, Scheme: "baseline", Bench: "GUPS"},
		Spec{System: sim.Server, Scheme: "lwc3", Bench: "GUPS"})
	for _, bench := range []string{"CG", "GUPS"} {
		base, err := r.get(sim.Server, "baseline", bench, 0)
		if err != nil {
			return nil, err
		}
		lwc, err := r.get(sim.Server, "lwc3", bench, 0)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			bench,
			f3(float64(lwc.CPUCycles) / float64(base.CPUCycles)),
			f3(lwc.DRAM.IO / base.DRAM.IO),
			f3(lwc.SystemJ() / base.SystemJ()),
		})
	}
	return t, nil
}

// Figure4 reproduces the idle-cycle distribution between successive data
// bus transactions (DDR4 baseline).
func (r *Runner) Figure4() (*Table, error) {
	names, err := r.suiteSorted(sim.Server)
	if err != nil {
		return nil, err
	}
	first, err := r.get(sim.Server, "baseline", names[0], 0)
	if err != nil {
		return nil, err
	}
	labels := first.Mem.GapHist.Labels()
	t := &Table{
		ID:    "Figure 4",
		Title: "Distribution of idle cycles between successive bus transactions (DDR4, DBI)",
		Note: "Paper: bursts are back-to-back in only 13% of cases overall; " +
			"long idle windows are common. Buckets are DRAM cycles.",
		Header: append([]string{"benchmark"}, labels...),
	}
	agg := make([]float64, len(labels))
	var aggTotal float64
	for _, n := range names {
		res, err := r.get(sim.Server, "baseline", n, 0)
		if err != nil {
			return nil, err
		}
		fr := res.Mem.GapHist.Fractions()
		row := []string{n}
		for i, f := range fr {
			row = append(row, pct(f))
			agg[i] += f * float64(res.Mem.GapPairs)
		}
		aggTotal += float64(res.Mem.GapPairs)
		t.Rows = append(t.Rows, row)
	}
	row := []string{"ALL"}
	for _, a := range agg {
		row = append(row, pct(a/aggTotal))
	}
	t.Rows = append(t.Rows, row)
	return t, nil
}

// Figure5 reproduces the cycle classification: no-pending vs idle-with-
// pending vs bus-busy, sorted by utilization.
func (r *Runner) Figure5() (*Table, error) {
	names, err := r.suiteSorted(sim.Server)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "Figure 5",
		Title: "Cycle breakdown: idle-empty / idle-with-pending / bus busy (DDR4, DBI)",
		Note: "Paper: the memory-intensive half of the suite has pending requests " +
			"most of the time, yet the bus stays idle in over half of those cycles.",
		Header: []string{"benchmark", "idle, no pending", "idle, pending", "bus utilized"},
	}
	for _, n := range names {
		res, err := r.get(sim.Server, "baseline", n, 0)
		if err != nil {
			return nil, err
		}
		m := res.Mem
		ticks := float64(m.Ticks)
		t.Rows = append(t.Rows, []string{
			n,
			pct(float64(m.IdleEmptyCycles) / ticks),
			pct(float64(m.IdlePendingCycles) / ticks),
			pct(m.BusUtilization()),
		})
	}
	return t, nil
}

// Figure6 reproduces the slack distribution between successive bus
// transactions.
func (r *Runner) Figure6() (*Table, error) {
	names, err := r.suiteSorted(sim.Server)
	if err != nil {
		return nil, err
	}
	first, err := r.get(sim.Server, "baseline", names[0], 0)
	if err != nil {
		return nil, err
	}
	labels := first.Mem.SlackHist.Labels()
	t := &Table{
		ID:    "Figure 6",
		Title: "Distribution of slack between successive bus transactions (DDR4, DBI)",
		Note: "Slack = cycles the first transaction could be extended without " +
			"delaying the second (bus-turnaround constraints move with it). " +
			"Paper: in many but not all cases turnaround does not limit longer codes.",
		Header: append([]string{"benchmark"}, labels...),
	}
	agg := make([]float64, len(labels))
	var aggTotal float64
	for _, n := range names {
		res, err := r.get(sim.Server, "baseline", n, 0)
		if err != nil {
			return nil, err
		}
		fr := res.Mem.SlackHist.Fractions()
		row := []string{n}
		for i, f := range fr {
			row = append(row, pct(f))
			agg[i] += f * float64(res.Mem.SlackHist.Total())
		}
		aggTotal += float64(res.Mem.SlackHist.Total())
		t.Rows = append(t.Rows, row)
	}
	row := []string{"ALL"}
	for _, a := range agg {
		row = append(row, pct(a/aggTotal))
	}
	t.Rows = append(t.Rows, row)
	return t, nil
}

// Figure7 reproduces the sparse-coding potential study: optimal static
// (8,k) limited-weight codes built per benchmark from the byte-value
// distribution of its memory contents, normalized to the zeros of the
// original (uncoded) data.
func (r *Runner) Figure7() (*Table, error) {
	ks := []int{9, 11, 13, 15, 17}
	header := []string{"benchmark", "DBI"}
	for _, k := range ks {
		header = append(header, fmt.Sprintf("(8,%d)", k))
	}
	t := &Table{
		ID:    "Figure 7",
		Title: "Zeros under optimal static LWC codes, normalized to uncoded data",
		Note: "Paper: considerable headroom beyond DBI; zeros fall monotonically " +
			"as the codeword widens, at the price of bandwidth. Each code is " +
			"built from the benchmark's own byte-pattern frequencies.",
		Header: header,
	}
	var suite []*workload.Benchmark
	for _, n := range r.names() {
		b, err := workload.ByName(n)
		if err != nil {
			return nil, err
		}
		suite = append(suite, b)
	}
	sums := make([]float64, len(ks)+1)
	for _, b := range suite {
		var freq [256]uint64
		span := b.Lines()
		step := span / 4096
		if step == 0 {
			step = 1
		}
		for line := int64(0); line < span; line += step {
			blk := b.LineData(line)
			for _, by := range blk {
				freq[by]++
			}
		}
		raw := float64(code.RawZeros(&freq))
		if raw == 0 {
			raw = 1
		}
		row := []string{b.Name, f3(float64(code.DBIZeros(&freq)) / raw)}
		sums[0] += float64(code.DBIZeros(&freq)) / raw
		for i, k := range ks {
			c, err := code.NewLowWeightCode(k, &freq)
			if err != nil {
				return nil, err
			}
			v := float64(c.WeightedZeros(&freq)) / raw
			row = append(row, f3(v))
			sums[i+1] += v
		}
		t.Rows = append(t.Rows, row)
	}
	avg := []string{"MEAN"}
	for _, s := range sums {
		avg = append(avg, f3(s/float64(len(suite))))
	}
	t.Rows = append(t.Rows, avg)
	return t, nil
}

// Table4 reproduces the codec synthesis results the energy model embeds.
func (r *Runner) Table4() (*Table, error) {
	t := &Table{
		ID:     "Table 4",
		Title:  "Area, power and latency of the MiL codecs (22nm DRAM process)",
		Note:   "These constants feed the codec-energy term and the +1 tCL cycle.",
		Header: []string{"block", "area (um2)", "power (mW)", "latency (ns)"},
	}
	rows := []struct {
		name string
		c    energy.CodecCost
	}{
		{"MiLC Enc", energy.Table4["milc"].Enc},
		{"MiLC Dec", energy.Table4["milc"].Dec},
		{"3-LWC Enc", energy.Table4["lwc3"].Enc},
		{"3-LWC Dec", energy.Table4["lwc3"].Dec},
	}
	for _, row := range rows {
		t.Rows = append(t.Rows, []string{
			row.name,
			fmt.Sprintf("%.0f", row.c.AreaUM2),
			f2(row.c.PowerMW),
			f2(row.c.LatencyNS),
		})
	}
	return t, nil
}
