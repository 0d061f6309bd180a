package main

import (
	"encoding/json"
	"os"
	"slices"
	"sort"
	"testing"
)

// TestBenchmarkJSONNamesTheMetricsRunsPrint keeps BENCHMARK.json and the
// result lines in step: every metric a run prints is declared there with
// the same unit, and nothing declared goes unprinted.
func TestBenchmarkJSONNamesTheMetricsRunsPrint(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
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
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.Name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, want)
	}

	check := func(kind string, declared []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, printed metrics) {
		seen := map[string]bool{}
		for _, d := range declared {
			seen[d.Name] = true
			m, ok := printed[d.Name]
			switch {
			case !ok:
				t.Errorf("%s metric %s is declared but never printed", kind, d.Name)
			case m.Unit != d.Unit:
				t.Errorf("%s metric %s: declared unit %s, printed %s", kind, d.Name, d.Unit, m.Unit)
			}
		}
		for name := range printed {
			if !seen[name] {
				t.Errorf("%s metric %s is printed but not declared", kind, name)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd(&e2e{}))
	layers := metrics{}
	trafficLayers(layers, &e2e{}, &fabricProbe{}, Ratio{})
	newReplayStats().layerMetrics(layers, nil)
	check("per_layer", doc.PerLayer, layers)
}
