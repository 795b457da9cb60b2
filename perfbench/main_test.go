package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// runTiny runs one workload at the self-test size and returns its exit
// code, its report lines and its parsed result.
func runTiny(t *testing.T, workload string, trace int) (int, string, result) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", "7", "--seconds", "0.4",
		"--trace", strconv.Itoa(trace), "--tiny", "--out", t.TempDir()}, &out, &errb)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v\nstdout:\n%s\nstderr:\n%s", workload, err, out.String(), errb.String())
	}
	return code, out.String(), res
}

// checkMetrics asserts the result carries exactly defs, each with its
// unit, and that the report printed each by name with its unit.
func checkMetrics(t *testing.T, workload, report string, res result, defs []metricDef, positive bool) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", workload, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok {
			t.Errorf("%s: metric %s missing", workload, d.name)
			continue
		}
		if m.Unit != d.unit {
			t.Errorf("%s: metric %s unit %q, want %q", workload, d.name, m.Unit, d.unit)
		}
		if positive && !(m.Value > 0) {
			t.Errorf("%s: end-to-end metric %s = %v, want > 0", workload, d.name, m.Value)
		}
		line := regexp.MustCompile(`(?m)^metric ` + regexp.QuoteMeta(d.name) + ` +\S+ +` + regexp.QuoteMeta(d.unit) + ` `)
		if !line.MatchString(report) {
			t.Errorf("%s: report does not print %s with unit %s", workload, d.name, d.unit)
		}
	}
}

var verifyLine = regexp.MustCompile(`(?m)^verify \S+ checked=(\d+) mismatches=0 `)

// TestEveryWorkloadTiny runs every workload untraced and traced at a tiny
// size: every metric is emitted with its unit, and verification ran and
// passed.
func TestEveryWorkloadTiny(t *testing.T) {
	for _, wl := range workloadNames {
		for _, trace := range []int{0, 1} {
			code, report, res := runTiny(t, wl, trace)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%d: exit %d, result %+v\n%s", wl, trace, code, res, report)
			}
			m := verifyLine.FindStringSubmatch(report)
			if m == nil || m[1] == "0" {
				t.Errorf("%s trace=%d: verification did not run and pass:\n%s", wl, trace, report)
			}
			if !strings.Contains(report, `"nproc":`) || !strings.Contains(report, `"kernel":`) {
				t.Errorf("%s trace=%d: no host fingerprint in the report", wl, trace)
			}
			if trace == 0 {
				checkMetrics(t, wl, report, res, endToEnd, true)
			} else {
				checkMetrics(t, wl, report, res, perLayer, false)
			}
		}
	}
}

// TestMismatchFailsTheRun proves verification is live: a wrong pinned
// simulator result must fail the run.
func TestMismatchFailsTheRun(t *testing.T) {
	k := cellKey{0.005, "gdb", "eager"}
	saved := pinned[k]
	wrong := saved
	wrong.faults++
	pinned[k] = wrong
	defer func() { pinned[k] = saved }()
	code, report, res := runTiny(t, "sim-apps", 0)
	if code == 0 || res.Correct || res.Failed == 0 {
		t.Fatalf("a wrong pinned value passed: exit %d, result %+v\n%s", code, res, report)
	}
}

// TestBenchmarkJSONMatches holds BENCHMARK.json to the program: the same
// workloads, and the same metrics with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, " ") != strings.Join(workloadNames, " ") {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames)
	}
	for _, c := range []struct {
		kind string
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", c.kind, len(c.json), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if c.json[i].Name != d.name || c.json[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, program %s %s", c.kind, i, c.json[i].Name, c.json[i].Unit, d.name, d.unit)
			}
		}
	}
}
