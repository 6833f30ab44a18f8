package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestWorkloadsTiny runs every workload at a tiny size, untraced and
// traced, with all its checks against the benchmark's model.
func TestWorkloadsTiny(t *testing.T) {
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			sub := name
			if trace {
				sub += "/trace"
			}
			t.Run(sub, func(t *testing.T) {
				dir := t.TempDir()
				o := options{
					workload: name, seed: 7, duration: 300 * time.Millisecond, trace: trace,
					size: tinySize, dir: filepath.Join(dir, "run"),
					spans: filepath.Join(dir, "spans.json"),
				}
				res, err := execute(o)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
				}
				want := endToEndMetrics
				if trace {
					want = layerMetrics
					if _, err := os.Stat(o.spans); err != nil {
						t.Fatalf("span file: %v", err)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Fatalf("got %d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.name]
					if !ok || got.Unit != m.unit {
						t.Fatalf("metric %s: got %+v, want unit %s", m.name, got, m.unit)
					}
					if !trace && got.Value <= 0 {
						t.Errorf("end-to-end metric %s reads %v", m.name, got.Value)
					}
				}
			})
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names the workloads and
// metrics the benchmark prints, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var b struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("unknown workload %s", w.Name)
		}
	}
	same := func(kind string, got []named, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s/%s, benchmark %s/%s",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEndMetrics)
	same("per_layer", b.PerLayer, layerMetrics)
}

// TestSelfTimes checks self time: a span's duration less its children.
func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	clock := []int64{0, 10, 40, 50, 55, 60, 90, 100}
	tr.now = func() int64 { c := clock[0]; clock = clock[1:]; return c }
	op := tr.begin("bench:op", -1, 1)           // 0
	call := tr.begin("core:call", op, 1)        // 10
	tr.end(call)                                // 40
	wait := tr.begin("watch:wait", op, 1)       // 50
	sum := tr.begin("fleet:Summaries", wait, 1) // 55
	tr.end(sum)                                 // 60
	tr.end(wait)                                // 90
	tr.end(op)                                  // 100
	got := tr.selfTimes()
	want := map[string]time.Duration{"bench": 30, "core": 30, "watch": 35, "fleet": 5}
	for l, d := range want {
		if got[l] != d {
			t.Errorf("self time of %s: got %v, want %v", l, got[l], d)
		}
	}
	if tr.spanCount() != 4 || tr.spans[3].Parent != 2 || tr.spans[3].End != 60 {
		t.Errorf("span file records: %+v", tr.spans)
	}
}
