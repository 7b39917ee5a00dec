package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the tests hold the code to.
type benchmarkSpec struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

func readSpec(t *testing.T) (string, benchmarkSpec) {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return root, spec
}

func unitsOf(ms []specMetric) map[string]string {
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

// TestNamesMatchBenchmarkJSON holds the code's vocabulary and
// BENCHMARK.json's together: same workloads, same metric names and units.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	_, spec := readSpec(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].name)
		}
		if !nameRE.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
	for _, c := range []struct {
		kind  string
		spec  []specMetric
		decls []metricDecl
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		want := unitsOf(c.spec)
		if len(want) != len(c.spec) {
			t.Errorf("%s: a name is declared twice in BENCHMARK.json", c.kind)
		}
		if len(c.decls) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the code %d", c.kind, len(want), len(c.decls))
		}
		for _, d := range c.decls {
			if !nameRE.MatchString(d.name) {
				t.Errorf("%s: name %q breaks the name rule", c.kind, d.name)
			}
			if unit, ok := want[d.name]; !ok {
				t.Errorf("%s: %s is not declared in BENCHMARK.json", c.kind, d.name)
			} else if unit != d.unit {
				t.Errorf("%s: %s has unit %q in BENCHMARK.json, %q in the code", c.kind, d.name, unit, d.unit)
			}
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// checkSpans asserts the trace invariants: every span has a live parent
// that encloses it and shares its invocation id, and no self time is
// negative.
func checkSpans(t *testing.T, tracers []*tracer) {
	t.Helper()
	total := 0
	for _, tr := range tracers {
		self := selfTimes(tr.spans)
		for i, s := range tr.spans {
			total++
			if self[i] < 0 {
				t.Fatalf("span %d (%s) has negative self time %v", i, s.name, self[i])
			}
			if s.parent < 0 {
				continue
			}
			if s.parent >= i {
				t.Fatalf("span %d (%s) names parent %d, which was not recorded before it", i, s.name, s.parent)
			}
			p := tr.spans[s.parent]
			if p.inv != s.inv {
				t.Fatalf("span %d (%s) has id %d, its parent %s id %d", i, s.name, s.inv, p.name, p.inv)
			}
			if s.start < p.start || s.end > p.end {
				t.Fatalf("span %d (%s) [%v,%v] leaves its parent %s [%v,%v]", i, s.name, s.start, s.end, p.name, p.start, p.end)
			}
		}
	}
	if total == 0 {
		t.Fatal("the traced run recorded no spans")
	}
}

// TestQuick runs `-quick` as the command does — one workload of each kind
// with short windows, untraced and traced — and checks that exactly the
// declared names are printed under their declared kind and unit, that the
// outputs verified, and that the traces are well formed.
func TestQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts hbcserve and hbcroute")
	}
	_, spec := readSpec(t)
	var stdout, stderr bytes.Buffer
	results, code := run([]string{"-quick", "-out", t.TempDir()}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("-quick exited %d\n%s%s", code, stdout.String(), stderr.String())
	}
	if want := 2 * len(quickWorkloads); len(results) != want {
		t.Fatalf("-quick made %d runs, want %d", len(results), want)
	}

	// printed[workload][kind][name] = unit, from the `workload kind name
	// value unit` lines.
	printed := map[string]map[string]map[string]string{}
	for _, line := range strings.Split(stdout.String(), "\n") {
		f := strings.Fields(line)
		if len(f) != 5 || (f[1] != "end_to_end" && f[1] != "per_layer") {
			continue
		}
		if printed[f[0]] == nil {
			printed[f[0]] = map[string]map[string]string{"end_to_end": {}, "per_layer": {}}
		}
		printed[f[0]][f[1]][f[2]] = f[4]
	}
	for _, name := range quickWorkloads {
		for kind, want := range map[string]map[string]string{"end_to_end": unitsOf(spec.EndToEnd), "per_layer": unitsOf(spec.PerLayer)} {
			if got := printed[name][kind]; !reflect.DeepEqual(got, want) {
				t.Errorf("%s: printed %s metrics %v, BENCHMARK.json declares %v", name, kind, got, want)
			}
		}
	}

	for _, res := range results {
		if len(res.problems) > 0 || res.failed > 0 || res.attempted == 0 {
			t.Errorf("%s traced=%v: attempted %d, failed %d, problems %v", res.workload, res.traced, res.attempted, res.failed, res.problems)
		}
		if !res.traced {
			for _, d := range endToEnd {
				if !(res.metrics[d.name] > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", res.workload, d.name, res.metrics[d.name])
				}
			}
			continue
		}
		checkSpans(t, res.tracers)
		if _, err := os.Stat(res.tracePath); err != nil {
			t.Errorf("%s: no trace file: %v", res.workload, err)
		}
	}
}

// TestDriverMode runs the command as the driver does and holds the last
// line of standard output to the contract: one JSON object with exactly the
// run's kind of metrics.
func TestDriverMode(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	_, spec := readSpec(t)
	for trace, want := range map[string]map[string]string{"0": unitsOf(spec.EndToEnd), "1": unitsOf(spec.PerLayer)} {
		var stdout, stderr bytes.Buffer
		args := []string{"-quick", "--workload", "lib-fine-gen", "--seed", "2", "--seconds", "1", "--trace", trace, "-out", t.TempDir()}
		if _, code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v exited %d\n%s", args, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var got struct {
			Correct   *bool `json:"correct"`
			Attempted *int  `json:"attempted"`
			Failed    *int  `json:"failed"`
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("--trace %s: last line is not the result object: %v\n%s", trace, err, lines[len(lines)-1])
		}
		if got.Correct == nil || !*got.Correct || got.Attempted == nil || *got.Attempted < 1 || got.Failed == nil || *got.Failed != 0 {
			t.Errorf("--trace %s: result %s", trace, lines[len(lines)-1])
		}
		units := map[string]string{}
		for n, m := range got.Metrics {
			if m.Value == nil {
				t.Errorf("--trace %s: metric %s has no value", trace, n)
			}
			units[n] = m.Unit
		}
		if !reflect.DeepEqual(units, want) {
			t.Errorf("--trace %s: result line has metrics %v, BENCHMARK.json declares %v", trace, units, want)
		}
	}
}

// TestSelfcheck feeds selfcheck pairs of runs that agree and that disagree.
func TestSelfcheck(t *testing.T) {
	bound := map[string]float64{}
	for _, d := range endToEnd {
		bound[d.name] = 0.10
	}
	mk := func(scale, failShareV float64) []*result {
		r := &result{workload: "lib-fine-gen", metrics: map[string]float64{failShare.name: failShareV}}
		for i, d := range endToEnd {
			r.metrics[d.name] = scale * float64(i+1)
		}
		return []*result{r}
	}
	// worse moves one metric of a run by rel.
	worse := func(rs []*result, name string, rel float64) []*result {
		rs[0].metrics[name] *= 1 + rel
		return rs
	}
	for _, c := range []struct {
		name          string
		first, second []*result
		agree         bool
	}{
		{"identical", mk(1, 0), mk(1, 0), true},
		{"inside the bound", mk(1, 0), mk(1.09, 0.0005), true},
		{"one metric outside, second run worse", mk(1, 0), worse(mk(1, 0), "lat_p90_ms", 0.11), false},
		{"one metric outside, first run worse", worse(mk(1, 0), "runs_per_s", 0.11), mk(1, 0), false},
		{"fail_share outside its absolute bound", mk(1, 0), mk(1, 0.002), false},
		{"a metric that is not a number", mk(1, 0), worse(mk(1, 0), "setup_s", math.NaN()), false},
	} {
		var out bytes.Buffer
		if got := selfcheck(&out, c.first, c.second, bound); got != c.agree {
			t.Errorf("%s: selfcheck = %v, want %v\n%s", c.name, got, c.agree, out.String())
		}
		if disagree := strings.Contains(out.String(), "DISAGREE"); disagree == c.agree {
			t.Errorf("%s: table marks a disagreement = %v\n%s", c.name, disagree, out.String())
		}
	}
}

// TestAddInsideTrimsToParent pins the back-dating rule: children reported
// longer than their parent are trimmed so no self time goes negative.
func TestAddInsideTrimsToParent(t *testing.T) {
	epoch := time.Now()
	tr := newTracer(epoch, 0, 4)
	root := tr.add(1, -1, "http", 0, epoch, epoch.Add(time.Millisecond))
	tr.addInside(1, root, 0, "queue", 300*time.Microsecond, "run", 900*time.Microsecond)
	checkSpans(t, []*tracer{tr})
	if got := tr.spans[1].dur() + tr.spans[2].dur(); got != time.Millisecond {
		t.Errorf("children cover %v of a 1ms parent", got)
	}
}
