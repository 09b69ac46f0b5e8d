package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// TestSpecMatchesHarness keeps BENCHMARK.json and the harness in step:
// the same workloads and the same metric names in the same sets.
func TestSpecMatchesHarness(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		sort.Strings(out)
		return out
	}
	sorted := func(xs []string) []string {
		out := append([]string(nil), xs...)
		sort.Strings(out)
		return out
	}
	var wl []string
	for n := range workloads {
		wl = append(wl, n)
	}
	for _, c := range []struct {
		what      string
		spec, got []string
	}{
		{"workloads", names(spec.Workloads), sorted(wl)},
		{"end_to_end", names(spec.EndToEnd), sorted(endToEnd)},
		{"per_layer", names(spec.PerLayer), sorted(perLayer)},
	} {
		if len(c.spec) != len(c.got) {
			t.Fatalf("%s: BENCHMARK.json has %v, harness has %v", c.what, c.spec, c.got)
		}
		for i := range c.spec {
			if c.spec[i] != c.got[i] {
				t.Fatalf("%s: BENCHMARK.json has %v, harness has %v", c.what, c.spec, c.got)
			}
		}
	}
}

// TestWorkloadsSmall runs every workload, untraced and traced, at the
// small scale with every output and post-run check on.
func TestWorkloadsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name, run := range workloads {
		for _, traced := range []bool{false, true} {
			c := &runCfg{workload: name, seed: 7, seconds: 1, trace: traced, sc: scales["small"]}
			rep, err := runWorkload(c, run, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if rep.failed != 0 || len(rep.checks) != 0 {
				t.Fatalf("%s traced=%v: %d of %d operations failed %v; checks %v",
					name, traced, rep.failed, rep.attempted, rep.failures, rep.checks)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if _, err := rep.result(want); err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
		}
	}
}

// TestSelfTime checks that a span's self time excludes the union of its
// children, with overlapping children counted once.
func TestSelfTime(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 50},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
	}
	for _, lt := range tr.selfTimes() {
		if lt.Name == "root" && lt.SelfMS*1e6 != 100-40-10 {
			t.Fatalf("root self time %v ns, want 50", lt.SelfMS*1e6)
		}
	}
}
