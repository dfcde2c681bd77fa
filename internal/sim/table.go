package sim

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/handover"
	"repro/internal/radio"
	"repro/internal/rng"
)

// BoundaryMeasurementPoints selects up to n epochs where the terminal sits
// closest to a three-cell boundary — the paper's "measurement for 3 points,
// where the MS is in the boundary of the 3 cells" (Figs. 12-13).  Selected
// epochs are separated by at least minSeparationKm of walked distance.
func (r *Result) BoundaryMeasurementPoints(n int, minSeparationKm float64) []int {
	if n <= 0 || len(r.Epochs) == 0 {
		return nil
	}
	// tripleness: spread of the three nearest BS distances; small = near a
	// triple point.
	score := make([]float64, len(r.Epochs))
	for i, e := range r.Epochs {
		score[i] = threeNearestSpread(r, e)
	}
	order := argsort(score)
	var picked []int
	for _, idx := range order {
		ok := true
		for _, p := range picked {
			if math.Abs(r.Epochs[idx].WalkedKm-r.Epochs[p].WalkedKm) < minSeparationKm {
				ok = false
				break
			}
		}
		if ok {
			picked = append(picked, idx)
			if len(picked) == n {
				break
			}
		}
	}
	sortInts(picked)
	return picked
}

// threeNearestSpread returns d3 − d1 over the three nearest base stations:
// zero exactly at a triple point.
func threeNearestSpread(r *Result, e Epoch) float64 {
	lattice := r.Network.Lattice()
	d1, d2, d3 := math.Inf(1), math.Inf(1), math.Inf(1)
	for _, c := range r.Network.Cells() {
		d := lattice.DistanceToCenter(c, e.Pos)
		switch {
		case d < d1:
			d1, d2, d3 = d, d1, d2
		case d < d2:
			d2, d3 = d, d2
		case d < d3:
			d3 = d
		}
	}
	return d3 - d1
}

// CrossingMeasurementPoints returns the epochs at which the walk enters a
// new geometric cell (up to n) — the handover-necessary instants of the
// crossing scenario.
func (r *Result) CrossingMeasurementPoints(n int) []int {
	var out []int
	for i := 1; i < len(r.Epochs); i++ {
		if r.Epochs[i].GeoCell != r.Epochs[i-1].GeoCell {
			out = append(out, i)
			if len(out) == n {
				break
			}
		}
	}
	return out
}

// HandoverEpochs returns the epochs at which handovers were executed.
func (r *Result) HandoverEpochs() []int {
	out := make([]int, 0, len(r.Events))
	for _, e := range r.Events {
		out = append(out, e.Epoch)
	}
	return out
}

// BoundaryTableEpochs selects the Table 3 measurement columns: every epoch
// of the boundary-hover walk, capped at max.  The paper's Table 3 has six
// columns — exactly the six waypoints of the 5-leg iseed = 100 walk.
func (r *Result) BoundaryTableEpochs(max int) []int {
	n := len(r.Epochs)
	if max > 0 && n > max {
		n = max
	}
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// CrossingTableEpochs selects the Table 4 measurement columns: for every
// executed handover, the epoch immediately before it and the handover epoch
// itself.  This mirrors the paper's sub-column pairs, where the first value
// of each measurement point sits below the 0.7 threshold and the second
// above it.
func (r *Result) CrossingTableEpochs() []int {
	var out []int
	for _, e := range r.Events {
		if e.Epoch > 0 {
			out = append(out, e.Epoch-1)
		}
		out = append(out, e.Epoch)
	}
	return out
}

// PaperTableCell is one (point, epoch) column of Tables 3-4.
type PaperTableCell struct {
	// EpochIndex identifies the epoch in the run.
	EpochIndex int
	// CSSPdB, SSNdB, DistanceKm are the paper's three measurement rows;
	// SSNdB includes the speed penalty of the table row.
	CSSPdB, SSNdB, DistanceKm float64
	// OutputHD is the FLC output for these inputs.
	OutputHD float64
	// CSSPdBCI95, SSNdBCI95, OutputHDCI95 are the half-widths of the
	// two-sided 95% confidence intervals (Student t over the averaging
	// replicas' shadow-fading sub-streams).  Zero on deterministic
	// (non-averaged) tables.
	CSSPdBCI95, SSNdBCI95, OutputHDCI95 float64
}

// PaperTableRow is one speed block of Tables 3-4.
type PaperTableRow struct {
	SpeedKmh float64
	Cells    []PaperTableCell
}

// PaperTable reproduces the structure of the paper's Tables 3-4: for each
// speed, the measurement rows and the FLC output at every selected epoch.
type PaperTable struct {
	// Title distinguishes Table 3 from Table 4 in reports.
	Title string
	// PointEpochs are the selected epochs (two per measurement point in the
	// paper's layout).
	PointEpochs []int
	Rows        []PaperTableRow
	// Threshold is the handover threshold the outputs compare against.
	Threshold float64
	// Replicas is the number of averaged sub-streams (1 for a
	// deterministic table); above 1 the cells carry 95% CIs.
	Replicas int
}

// BuildPaperTable evaluates the FLC at the given epochs across the speed
// sweep.  As in the paper, the walk (and therefore CSSP and the distance)
// is speed-independent; speed only shifts SSN by −2 dB per 10 km/h.  For
// the paper's "10 times simulations" averaging protocol under fading, see
// BuildAveragedPaperTable.  A nil flc selects the process-wide paper FLC.
func BuildPaperTable(title string, r *Result, flc *core.FLC, epochs []int, speeds []float64) (*PaperTable, error) {
	if flc == nil {
		flc = core.NewController().FLC()
	}
	if len(epochs) == 0 {
		return nil, fmt.Errorf("sim: no measurement epochs selected")
	}
	for _, idx := range epochs {
		if idx < 0 || idx >= len(r.Epochs) {
			return nil, fmt.Errorf("sim: epoch index %d out of range", idx)
		}
	}
	t := &PaperTable{
		Title:       title,
		PointEpochs: append([]int(nil), epochs...),
		Threshold:   core.DefaultHandoverThreshold,
		Replicas:    1,
	}
	baseSpeed := r.Config.SpeedKmh
	for _, speed := range speeds {
		row := PaperTableRow{SpeedKmh: speed}
		for _, idx := range epochs {
			e := r.Epochs[idx]
			// Remove the run's own penalty, apply this row's.
			ssn := e.NeighborDB + radio.SpeedPenaltyDB(baseSpeed) - radio.SpeedPenaltyDB(speed)
			hd, err := flc.Evaluate(e.CSSPdB, ssn, e.DMBNorm)
			if err != nil {
				return nil, err
			}
			row.Cells = append(row.Cells, PaperTableCell{
				EpochIndex: idx,
				CSSPdB:     e.CSSPdB,
				SSNdB:      ssn,
				DistanceKm: e.DistanceKm,
				OutputHD:   hd,
			})
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// BuildAveragedPaperTable implements the paper's replication protocol —
// "we carry out 10 times simulations and calculate the average values" —
// under shadow fading: the walk (and therefore CSSP and the distances) is
// held fixed while the shadowing process is re-seeded per replica, and the
// measured SSN and FLC outputs are averaged cell-wise.  Replicas measure
// passively (no handover is executed) so every replica's inputs reference
// the same serving attachment — exactly the paper's protocol, whose tables
// report distances from the original BS throughout the walk.  With
// shadowSigmaDB = 0 every replica coincides and the result equals
// BuildPaperTable on a passive deterministic run.
//
// Beyond the paper's point estimates, every averaged cell carries the
// half-width of its two-sided 95% confidence interval over the replica
// sub-streams (Student t with replicas−1 degrees of freedom), so the
// tables report how tight the averaging protocol actually is.  A nil flc
// selects the process-wide paper FLC, as in BuildPaperTable.
func BuildAveragedPaperTable(title string, base Config, flc *core.FLC, epochs []int, speeds []float64, replicas int, shadowSigmaDB, shadowDecorrKm float64) (*PaperTable, error) {
	if replicas < 1 {
		return nil, fmt.Errorf("sim: replicas %d < 1", replicas)
	}
	if flc == nil {
		flc = core.NewController().FLC()
	}
	var acc *PaperTable
	var samples [][][3][]float64 // [row][cell]{CSSP, SSN, HD} replica samples
	for rep := 0; rep < replicas; rep++ {
		cfg := base
		cfg.Algorithm = handover.Passive{}
		cfg.ShadowSigmaDB = shadowSigmaDB
		cfg.ShadowDecorrKm = shadowDecorrKm
		if shadowSigmaDB > 0 {
			cfg.ShadowSeed = rng.DeriveSeed(base.Seed, 100+rep)
		}
		res, err := Run(cfg)
		if err != nil {
			return nil, err
		}
		t, err := BuildPaperTable(title, res, flc, epochs, speeds)
		if err != nil {
			return nil, err
		}
		if acc == nil {
			acc = t
			samples = make([][][3][]float64, len(t.Rows))
			for r := range t.Rows {
				samples[r] = make([][3][]float64, len(t.Rows[r].Cells))
			}
		}
		for r := range t.Rows {
			for c := range t.Rows[r].Cells {
				cell := t.Rows[r].Cells[c]
				samples[r][c][0] = append(samples[r][c][0], cell.CSSPdB)
				samples[r][c][1] = append(samples[r][c][1], cell.SSNdB)
				samples[r][c][2] = append(samples[r][c][2], cell.OutputHD)
			}
		}
	}
	tcrit := tCritical95(replicas - 1)
	for r := range acc.Rows {
		for c := range acc.Rows[r].Cells {
			cell := &acc.Rows[r].Cells[c]
			cell.CSSPdB, cell.CSSPdBCI95 = meanCI(samples[r][c][0], tcrit)
			cell.SSNdB, cell.SSNdBCI95 = meanCI(samples[r][c][1], tcrit)
			cell.OutputHD, cell.OutputHDCI95 = meanCI(samples[r][c][2], tcrit)
		}
	}
	acc.Replicas = replicas
	acc.Title = fmt.Sprintf("%s (avg of %d replicas ±95%% CI, σ=%g dB)", title, replicas, shadowSigmaDB)
	return acc, nil
}

// meanCI returns the sample mean and the 95% CI half-width t · s/√n over
// the replica samples.  The variance is computed in the numerically
// stable centered form, and coinciding replicas (σ = 0 runs) yield an
// exactly-zero interval rather than cancellation noise.
func meanCI(xs []float64, tcrit float64) (mean, ci float64) {
	n := float64(len(xs))
	for _, x := range xs {
		mean += x
	}
	mean /= n
	if len(xs) < 2 {
		return mean, 0
	}
	min, max := xs[0], xs[0]
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	if min == max {
		return min, 0
	}
	return mean, tcrit * math.Sqrt(ss/(n-1)/n)
}

// tCritical95 returns the two-sided 95% Student t critical value for the
// given degrees of freedom (1.96, the normal limit, past the table).
func tCritical95(df int) float64 {
	table := [...]float64{
		12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
		2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
		2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
	}
	if df < 1 {
		return math.NaN()
	}
	if df <= len(table) {
		return table[df-1]
	}
	return 1.96
}

// MaxOutput returns the largest FLC output anywhere in the table.
func (t *PaperTable) MaxOutput() float64 { return t.MaxOutputCell().OutputHD }

// MinOutput returns the smallest FLC output anywhere in the table.
func (t *PaperTable) MinOutput() float64 {
	min := math.Inf(1)
	for _, row := range t.Rows {
		for _, c := range row.Cells {
			if c.OutputHD < min {
				min = c.OutputHD
			}
		}
	}
	return min
}

// String renders the table in the paper's row layout.
func (t *PaperTable) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (threshold %.2f)\n", t.Title, t.Threshold)
	fmt.Fprintf(&b, "%-22s", "Measurement epochs")
	for _, idx := range t.PointEpochs {
		fmt.Fprintf(&b, "%10d", idx)
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		fmt.Fprintf(&b, "Speed %g km/h\n", row.SpeedKmh)
		writeRow := func(label string, get func(PaperTableCell) float64) {
			fmt.Fprintf(&b, "  %-20s", label)
			for _, c := range row.Cells {
				fmt.Fprintf(&b, "%10.4f", get(c))
			}
			b.WriteByte('\n')
		}
		writeRow("CSSP BS [dB]", func(c PaperTableCell) float64 { return c.CSSPdB })
		if t.Replicas > 1 {
			writeRow("  ±95% CI", func(c PaperTableCell) float64 { return c.CSSPdBCI95 })
		}
		writeRow("Neighbor BS [dB]", func(c PaperTableCell) float64 { return c.SSNdB })
		if t.Replicas > 1 {
			writeRow("  ±95% CI", func(c PaperTableCell) float64 { return c.SSNdBCI95 })
		}
		writeRow("Distance [km]", func(c PaperTableCell) float64 { return c.DistanceKm })
		writeRow("System Output", func(c PaperTableCell) float64 { return c.OutputHD })
		if t.Replicas > 1 {
			writeRow("  ±95% CI", func(c PaperTableCell) float64 { return c.OutputHDCI95 })
		}
	}
	return b.String()
}

// MaxOutputCell returns the cell holding the largest FLC output — with
// its CI fields, so callers can report "max output m ± ci".
func (t *PaperTable) MaxOutputCell() PaperTableCell {
	var max PaperTableCell
	max.OutputHD = math.Inf(-1)
	for _, row := range t.Rows {
		for _, c := range row.Cells {
			if c.OutputHD > max.OutputHD {
				max = c
			}
		}
	}
	return max
}

// argsort returns indices ordering xs ascending.
func argsort(xs []float64) []int {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && xs[idx[j]] < xs[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	return idx
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
