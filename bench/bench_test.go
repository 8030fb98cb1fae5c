package main

import (
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"sort"
	"testing"
)

// manifest mirrors ../BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestManifestMatchesDeclarations keeps BENCHMARK.json and the program's
// own tables from drifting apart: same workloads and reasons, same metric
// names, units, directions and bounds, every name well-formed, and every
// per-layer prediction pointing at an end-to-end metric and a workload
// that exist.
func TestManifestMatchesDeclarations(t *testing.T) {
	m := readManifest(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)",
				i, m.Workloads[i].Name, m.Workloads[i].Why, w.name, w.why)
		}
		if !nameRE.MatchString(w.name) {
			t.Errorf("workload name %q is malformed", w.name)
		}
	}
	check := func(kind string, got []manifestMetric, want []decl, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, d)
			}
			if !nameRE.MatchString(d.name) {
				t.Errorf("%s name %q is malformed", kind, d.name)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.bound) {
				t.Errorf("%s %s: bound in BENCHMARK.json does not match the program's %v", kind, d.name, d.bound)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEndDecls, true)
	check("per_layer", m.PerLayer, perLayerDecls, false)

	e2e := map[string]bool{}
	for _, d := range endToEndDecls {
		e2e[d.name] = true
	}
	for _, d := range perLayerDecls {
		for _, tg := range d.moves {
			if !e2e[tg.metric] || workloadByName(tg.workload) == nil {
				t.Errorf("%s predicts a move of %s on %s, which does not exist", d.name, tg.metric, tg.workload)
			}
		}
	}
}

// TestSmoke runs every workload once in both modes at the minimum length
// (one timed lap, kernels at their minimum repetitions), verification on,
// and checks that the emitted metric names are exactly the declared ones
// and that no operation failed.
func TestSmoke(t *testing.T) {
	m := readManifest(t)
	names := func(ms []manifestMetric) []string {
		out := make([]string, len(ms))
		for i, mm := range ms {
			out[i] = mm.Name
		}
		sort.Strings(out)
		return out
	}
	dir := t.TempDir()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel() // timings are not asserted, so the workloads may share the CPUs
			smoke(t, w, dir, names(m.EndToEnd), names(m.PerLayer))
		})
	}
}

func smoke(t *testing.T, w *workload, dir string, wantE2E, wantLayers []string) {
	plain, err := runPlain(w, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := runTraced(w, 1, 0, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range []struct {
		res  *result
		want []string
	}{{plain, wantE2E}, {traced, wantLayers}} {
		if got := sortedKeys(run.res.metrics); !slices.Equal(got, run.want) {
			t.Errorf("%s: emitted %v, BENCHMARK.json declares %v", w.name, got, run.want)
		}
		if !run.res.correct || run.res.failed != 0 || run.res.attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d: %v",
				w.name, run.res.correct, run.res.attempted, run.res.failed, run.res.why)
		}
		var line struct {
			Metrics map[string]metric `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(run.res.jsonLine()), &line); err != nil || len(line.Metrics) != len(run.want) {
			t.Errorf("%s: last line does not parse back: %v", w.name, err)
		}
	}
	for name, mm := range plain.metrics {
		if !(mm.Value > 0) {
			t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, mm.Value)
		}
	}
	if _, err := os.Stat(dir + "/trace-" + w.name + ".json"); err != nil {
		t.Errorf("%s: spans not written: %v", w.name, err)
	}
}
