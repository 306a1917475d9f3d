package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// Self-tests of the benchmark: every workload reports exactly the metrics
// BENCHMARK.json declares and passes its correctness gate on unchanged
// outputs, and a perturbed reference, a dropped terminal document or a
// tampered tally makes the command fail. They run the workloads on small
// kernels for a fraction of a second:
//
//	python3 perfbench/run.py --selftest

func smallConfig(t *testing.T, workload string) config {
	t.Helper()
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	svc := serviceConfig{jobs: 8, kernels: []string{"needle", "nbody"}}
	return config{
		workload: workload,
		seed:     3,
		seconds:  0.1,
		kernels:  []string{"needle", "nbody"},
		ref:      ref,
		spanDir:  t.TempDir(),
		svc:      svc,
	}
}

// exitCode runs one configured workload the way the command does and
// returns its exit code and standard output.
func exitCode(t *testing.T, cfg config) (int, string) {
	t.Helper()
	rep, err := runWorkload(cfg, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	var out, errs bytes.Buffer
	code := emit(rep, &out, &errs)
	if code != 0 {
		t.Logf("%s failed as expected:\n%s", cfg.workload, errs.String())
	}
	return code, out.String()
}

// TestMetricsMatchBenchmarkJSON runs every workload untraced and traced and
// checks that each reports exactly the metrics BENCHMARK.json declares, with
// the declared units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"search", "baseline", "service"} {
		for _, traced := range []bool{false, true} {
			want := def.EndToEnd
			if traced {
				want = def.PerLayer
			}
			cfg := smallConfig(t, w)
			cfg.trace = traced
			rep, err := runWorkload(cfg, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.errs) > 0 {
				t.Errorf("%s traced=%t failed its gate: %v", w, traced, rep.errs)
			}
			for _, m := range want {
				got, ok := rep.metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%t: metric %s = %+v, want unit %s", w, traced, m.Name, got, m.Unit)
				}
			}
			if len(rep.metrics) != len(want) {
				t.Errorf("%s traced=%t: %d metrics, BENCHMARK.json declares %d", w, traced, len(rep.metrics), len(want))
			}
		}
	}
}

func TestPerturbedReferenceFails(t *testing.T) {
	for _, w := range []string{"search", "baseline"} {
		cfg := smallConfig(t, w)
		set := &cfg.ref.Search
		if w == "baseline" {
			set = &cfg.ref.Baseline
		}
		perturbed := map[string]float64{}
		for k, v := range set.SDC {
			perturbed[k] = v
		}
		perturbed["needle"] += 0.1
		set.SDC = perturbed
		if code, _ := exitCode(t, cfg); code == 0 {
			t.Errorf("%s: a perturbed reference bound did not fail the run", w)
		}
	}
}

func TestDroppedTerminalDocumentFails(t *testing.T) {
	cfg := smallConfig(t, "service")
	cfg.mangle = func(line []byte) []byte {
		if bytes.Contains(line, []byte(`"ev":"job.result"`)) {
			return nil
		}
		return line
	}
	if code, _ := exitCode(t, cfg); code == 0 {
		t.Error("dropped terminal documents did not fail the run")
	}
}

func TestTamperedTallyFails(t *testing.T) {
	cfg := smallConfig(t, "service")
	sdc := regexp.MustCompile(`"SDC":(\d+)`)
	cfg.mangle = func(line []byte) []byte {
		if !bytes.Contains(line, []byte(`"ev":"job.result"`)) {
			return line
		}
		return sdc.ReplaceAll(line, []byte(`"SDC":1$1`))
	}
	if code, _ := exitCode(t, cfg); code == 0 {
		t.Error("tampered tallies did not fail the run")
	}
}
