package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the tests check.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// The rates and SLO limits are constants of the benchmark, stated in
// BENCHMARK.json; the two must agree, and every workload the file
// leaves out says why.
func TestWorkloadsMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	listed := map[string]bool{}
	for _, w := range bf.Workloads {
		spec, err := specByName(w.Name)
		if err != nil {
			t.Errorf("BENCHMARK.json: %v", err)
			continue
		}
		listed[w.Name] = true
		if spec.Unlisted != "" {
			t.Errorf("%s: listed in BENCHMARK.json, but the benchmark says it is not: %s", w.Name, spec.Unlisted)
		}
		for _, want := range []string{fmt.Sprintf("%g jobs/s", spec.Rate), fmt.Sprintf("SLO %d ms", spec.SLO.Milliseconds())} {
			if !strings.Contains(w.Why, want) {
				t.Errorf("%s: why %q does not state %q", w.Name, w.Why, want)
			}
		}
	}
	for _, spec := range workloadSpecs {
		if !listed[spec.Name] && spec.Unlisted == "" {
			t.Errorf("%s: not listed in BENCHMARK.json and no reason given", spec.Name)
		}
	}
}

// checkMetrics fails unless got carries exactly the listed metrics,
// each with its unit.
func checkMetrics(t *testing.T, what string, got metricSet, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	for _, m := range want {
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", what, m.Name)
		case g.Unit != m.Unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json %q", what, m.Name, g.Unit, m.Unit)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics printed, BENCHMARK.json lists %d", what, len(got), len(want))
	}
}

// A short run of each workload passes the verdict gate and prints
// every metric BENCHMARK.json names, with its unit.
func TestSmokeEachWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the served path")
	}
	bf := readBenchmarkFile(t)
	small := prebuildSize{Jobs: 300, Journal: 300}
	for _, spec := range workloadSpecs {
		t.Run(spec.Name, func(t *testing.T) {
			for _, trace := range []int{0, 1} {
				o := options{workload: spec.Name, seed: 3, seconds: 2, trace: trace, prebuild: small, buildDir: t.TempDir()}
				res, prov, err := runBenchmark(o, spec)
				if err != nil {
					t.Fatalf("trace %d: %v", trace, err)
				}
				if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
					t.Fatalf("trace %d: result %+v", trace, res)
				}
				if prov["verdicts_checked"].(int) == 0 {
					t.Fatalf("trace %d: no verdict was checked", trace)
				}
				if trace == 0 {
					checkMetrics(t, spec.Name+" end_to_end", res.Metrics, bf.EndToEnd)
				} else {
					checkMetrics(t, spec.Name+" per_layer", res.Metrics, bf.PerLayer)
				}
			}
		})
	}
}
