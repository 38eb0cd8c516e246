package experiments

import (
	"fmt"
	"time"

	"pressio/internal/core"
	"pressio/internal/mgard"
	"pressio/internal/stats"
	"pressio/internal/sz"
	"pressio/internal/zfp"
)

// OverheadConfig identifies one matched-pair configuration of the §VI
// overhead experiment: a dataset, a compressor, and a value-range relative
// error bound.
type OverheadConfig struct {
	Dataset    string
	Compressor string
	RelBound   float64
}

func (c OverheadConfig) String() string {
	return fmt.Sprintf("%s/%s@%g", c.Dataset, c.Compressor, c.RelBound)
}

// OverheadResult summarizes one configuration's matched-pair runs.
type OverheadResult struct {
	Config OverheadConfig
	// MedianPct is the median percent overhead of the generic interface
	// relative to the native API across runs.
	MedianPct float64
	// MaxPct is the largest single-run percent overhead.
	MaxPct float64
	// MinPct is the smallest (most negative) single-run percent overhead.
	MinPct float64
	// NativeMedianMS / GenericMedianMS are the median times of each side.
	NativeMedianMS  float64
	GenericMedianMS float64
}

// Fig3Result aggregates the full experiment.
type Fig3Result struct {
	Results []OverheadResult
	// MaxMedianPct is the largest per-config median overhead (the paper
	// reports 0.47%).
	MaxMedianPct float64
	// MaxSinglePct is the largest single observation (the paper: 2.08%).
	MaxSinglePct float64
	// Wilcoxon is the signed-rank test over all (generic, native) pairs
	// (the paper: p = .600, insufficient evidence of overhead).
	Wilcoxon stats.WilcoxonResult
	Runs     int
}

// fig3Configs builds the 35 configurations: 3 datasets x 3 compressors x 4
// value-range relative bounds in the paper's 1e-4..2e-2 window, minus one
// (the paper also tested 35, not a full cross product).
func fig3Configs() []OverheadConfig {
	bounds := []float64{1e-4, 1e-3, 1e-2, 2e-2}
	var out []OverheadConfig
	for _, ds := range []string{"scale-letkf", "nyx-density", "hacc-x"} {
		for _, comp := range []string{"sz", "zfp", "mgard"} {
			for _, b := range bounds {
				if ds == "hacc-x" && comp == "zfp" && b == 2e-2 {
					continue // keep the paper's count of 35 configurations
				}
				out = append(out, OverheadConfig{Dataset: ds, Compressor: comp, RelBound: b})
			}
		}
	}
	return out
}

// nativeCompress calls the compressor's own API directly, as a hand-written
// integration would, bypassing the generic interface entirely.
func nativeCompress(comp string, in *core.Data, relBound float64) error {
	switch comp {
	case "sz":
		_, err := sz.CompressSlice(in.Float32s(), in.Dims(),
			sz.Params{Mode: core.BoundValueRangeRel, Bound: relBound})
		return err
	case "zfp":
		lo, hi := core.ValueRange(in)
		tol := relBound * (hi - lo)
		if tol <= 0 {
			tol = 1e-12
		}
		_, err := zfp.CompressSlice(in.Float32s(), in.Dims(),
			zfp.Params{Mode: zfp.ModeFixedAccuracy, Tolerance: tol})
		return err
	case "mgard":
		_, err := mgard.CompressSlice(in.Float32s(), in.Dims(),
			mgard.Params{Mode: core.BoundValueRangeRel, Bound: relBound})
		return err
	default:
		return fmt.Errorf("experiments: no native path for %q", comp)
	}
}

// minSamplePairs is the fewest interleaved native/generic call pairs one
// Fig. 3 sample is made of.
const minSamplePairs = 10

// Fig3 runs the matched-pair overhead experiment: every configuration is
// timed `runs` times through the native API and through the generic
// interface. Each sample interleaves the two sides call by call,
// alternating which goes first, to cancel thermal drift and load from
// other processes.
func Fig3(scale, runs int, seed int64) (Fig3Result, error) {
	if runs < 4 {
		runs = 4
	}
	datasets := map[string]*core.Data{}
	for _, d := range Datasets(scale, seed) {
		datasets[d.Name] = d.Data
	}
	var res Fig3Result
	res.Runs = runs
	var allGeneric, allNative []float64
	for _, cfg := range fig3Configs() {
		in := datasets[cfg.Dataset]
		c, err := core.NewCompressor(cfg.Compressor)
		if err != nil {
			return res, err
		}
		// Configure once, outside the timed region, exactly as the paper's
		// harness does.
		if err := c.SetOptions(core.NewOptions().SetValue(core.KeyRel, cfg.RelBound)); err != nil {
			return res, err
		}
		out := core.NewEmpty(core.DTypeByte, 0)
		// Warm up both paths, and calibrate how many call pairs one timed
		// sample needs: enough to cover ~10 ms of work per side, and at
		// least minSamplePairs, so that each side's fastest call is likely
		// to have run undisturbed.
		warm := time.Now()
		if err := nativeCompress(cfg.Compressor, in, cfg.RelBound); err != nil {
			return res, fmt.Errorf("%s native: %w", cfg, err)
		}
		warmDur := time.Since(warm)
		if err := c.Compress(in, out); err != nil {
			return res, fmt.Errorf("%s generic: %w", cfg, err)
		}
		reps := 200
		if warmDur > 0 {
			reps = min(max(int(10*time.Millisecond/warmDur), minSamplePairs), 200)
		}
		nativeMS := make([]float64, runs)
		genericMS := make([]float64, runs)
		nativeCalls := make([]float64, reps)
		genericCalls := make([]float64, reps)
		for r := 0; r < runs; r++ {
			// Interleave the two sides call by call, alternating which goes
			// first, so load that comes and goes while the sample runs
			// falls on both sides alike. Each side's sample is its fastest
			// call: other processes on a shared machine and GC cycles only
			// ever add time to a call, and on a loaded machine they can
			// make one call take several times as long as the next.
			for k := 0; k < reps; k++ {
				nativeFirst := (r+k)%2 == 0
				for _, isNative := range [2]bool{nativeFirst, !nativeFirst} {
					t := time.Now()
					if isNative {
						err = nativeCompress(cfg.Compressor, in, cfg.RelBound)
						nativeCalls[k] = float64(time.Since(t).Nanoseconds()) / 1e6
					} else {
						err = c.Compress(in, out)
						genericCalls[k] = float64(time.Since(t).Nanoseconds()) / 1e6
					}
					if err != nil {
						return res, fmt.Errorf("%s: %w", cfg, err)
					}
				}
			}
			nativeMS[r] = stats.Min(nativeCalls)
			genericMS[r] = stats.Min(genericCalls)
		}
		pct := make([]float64, runs)
		for r := 0; r < runs; r++ {
			pct[r] = 100 * (genericMS[r] - nativeMS[r]) / nativeMS[r]
		}
		or := OverheadResult{
			Config:          cfg,
			MedianPct:       stats.Median(pct),
			MaxPct:          stats.Max(pct),
			MinPct:          stats.Min(pct),
			NativeMedianMS:  stats.Median(nativeMS),
			GenericMedianMS: stats.Median(genericMS),
		}
		res.Results = append(res.Results, or)
		if or.MedianPct > res.MaxMedianPct {
			res.MaxMedianPct = or.MedianPct
		}
		if or.MaxPct > res.MaxSinglePct {
			res.MaxSinglePct = or.MaxPct
		}
		allGeneric = append(allGeneric, genericMS...)
		allNative = append(allNative, nativeMS...)
	}
	if w, err := stats.WilcoxonSignedRank(allGeneric, allNative); err == nil {
		res.Wilcoxon = w
	}
	return res, nil
}

// Report renders the experiment in the shape of Figure 3: a histogram of
// per-configuration median overheads plus the headline numbers.
func (r Fig3Result) Report() string {
	medians := make([]float64, len(r.Results))
	for i, or := range r.Results {
		medians[i] = or.MedianPct
	}
	lo, hi := stats.Min(medians), stats.Max(medians)
	if lo == hi {
		lo, hi = lo-0.5, hi+0.5
	}
	counts, edges := stats.Histogram(medians, lo, hi, 9)
	var rows [][]string
	for i, c := range counts {
		bar := ""
		for k := 0; k < c; k++ {
			bar += "#"
		}
		rows = append(rows, []string{
			fmt.Sprintf("[%+.2f%%, %+.2f%%)", edges[i], edges[i+1]),
			fmt.Sprintf("%d", c),
			bar,
		})
	}
	out := "Figure 3: distribution of median percent overheads across configurations\n"
	out += Table([]string{"median overhead bin", "configs", ""}, rows)
	out += fmt.Sprintf("\nconfigurations: %d, runs each: %d\n", len(r.Results), r.Runs)
	out += fmt.Sprintf("largest median overhead: %.2f%% (paper: 0.47%%)\n", r.MaxMedianPct)
	out += fmt.Sprintf("largest single-run overhead: %.2f%% (paper: 2.08%%)\n", r.MaxSinglePct)
	out += fmt.Sprintf("Wilcoxon signed-rank: W=%.1f N=%d p=%.3f (paper: p=.600)\n",
		r.Wilcoxon.W, r.Wilcoxon.N, r.Wilcoxon.P)
	return out
}
