package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"pressio/internal/sdrbench"
)

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return s
}

// TestSpecMatchesCode keeps BENCHMARK.json and the metric tables the
// benchmark prints from in step.
func TestSpecMatchesCode(t *testing.T) {
	s := loadSpec(t)
	check := func(kind string, got []specMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(got), len(want))
		}
		for i, m := range got {
			w := want[i]
			if m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, code %+v", kind, i, m, w)
			}
		}
	}
	check("end_to_end", s.EndToEnd, endToEndMetrics)
	check("per_layer", s.PerLayer, perLayerMetrics)
	for _, m := range s.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name != "setup_s" && m.Bound > s.EndToEnd[0].Bound {
			t.Errorf("%s: bound %v above setup_s's", m.Name, m.Bound)
		}
	}
	if s.EndToEnd[0].Name != "setup_s" {
		t.Errorf("first end-to-end metric is %q, want setup_s", s.EndToEnd[0].Name)
	}
	listed := map[string]bool{}
	for _, w := range s.Workloads {
		listed[w.Name] = true
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the code", w.Name)
		}
	}
	for name := range workloads {
		if !listed[name] {
			t.Errorf("workload %q is not in BENCHMARK.json", name)
		}
	}
}

// TestShortRunsPrintEveryMetric runs each workload briefly, untraced and
// traced, and checks that the last line of output carries every metric of
// BENCHMARK.json with its unit and no failed operation.
func TestShortRunsPrintEveryMetric(t *testing.T) {
	s := loadSpec(t)
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			want := s.EndToEnd
			if traced {
				want = s.PerLayer
			}
			t.Run(name+map[bool]string{false: "/untraced", true: "/traced"}[traced], func(t *testing.T) {
				var out bytes.Buffer
				cfg := config{workload: name, seed: 7, measure: 2 * time.Second, trace: traced, workdir: t.TempDir()}
				if _, err := run(cfg, &out); err != nil {
					t.Fatalf("run: %v\n%s", err, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				if !strings.Contains(lines[0], "seed=7") {
					t.Errorf("first line does not record the seed: %q", lines[0])
				}
				var res jsonResult
				dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&res); err != nil {
					t.Fatalf("last line: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s unit %q, want %q", m.Name, got.Unit, m.Unit)
					}
				}
			})
		}
	}
}

// TestFieldsKeepGeneratorExtents checks that the stacked fields have the
// shape sdrbench.Generate gives each at the same scale.
func TestFieldsKeepGeneratorExtents(t *testing.T) {
	for _, name := range sdrbench.Names() {
		want, _ := sdrbench.Generate(name, fieldsScale, 1)
		got, err := generateField(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Dims(), want.Dims()) || got.DType() != want.DType() {
			t.Errorf("%s: %v %v, want %v %v", name, got.DType(), got.Dims(), want.DType(), want.Dims())
		}
	}
}

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct{ n, pct int }{{5, 50}, {20, 50}, {30, 66}, {100, 90}, {1000, 99}, {5000, 99}} {
		d := make([]time.Duration, c.n)
		for i := range d {
			d[i] = time.Duration(c.n - i)
		}
		v, pct := tail(d)
		if pct != c.pct {
			t.Errorf("n=%d: p%d, want p%d", c.n, pct, c.pct)
		}
		if beyond := c.n - int(v); c.n > 20 && beyond < 10 {
			t.Errorf("n=%d: only %d samples beyond p%d", c.n, beyond, pct)
		}
	}
}
