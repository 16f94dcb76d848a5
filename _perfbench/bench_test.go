package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"webtextie/internal/crawler/shard/supervisor"
	"webtextie/internal/dataflow"
)

// smallCrawlEnv is the crawl plan at a 1,000-page budget.
func smallCrawlEnv(seed uint64, chaos bool) *crawlEnv {
	e := newCrawlEnv(seed, chaos)
	e.budget = 1000
	return e
}

// Measuring from outside must not change what the program computes: the
// traced crawl drive stores the corpus the untraced fleet stores.
func TestTracedCrawlMatchesUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four crawls")
	}
	for _, chaos := range []bool{false, true} {
		e := smallCrawlEnv(1, chaos)
		res, rep, err := e.crawl()
		if err != nil {
			t.Fatal(err)
		}
		untraced := summarize(res, rep)
		f, err := e.tracedCrawl(newTracer())
		if err != nil {
			t.Fatal(err)
		}
		traced := summarize(f.res, f.rep)
		if msg := e.check(traced, &untraced); msg != "" {
			t.Errorf("chaos=%v: traced crawl: %s", chaos, msg)
		}
	}
}

// The traced analysis plan — copied operators with wrapped UDFs — yields
// the per-corpus entity totals of the untraced analysis.
func TestTracedAnalysisMatchesUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a system and analyses its corpora twice")
	}
	sys, _ := newSystems(1)
	in := newAnalysisInput(sys, 1)
	ref, err := analyzeAll(sys, in)
	if err != nil {
		t.Fatal(err)
	}
	plan := sys.Registry().AnalysisFlow(false)
	dataflow.Optimize(plan)
	ops := &opTimers{byName: map[string]*opStats{}, texts: map[string]string{}}
	traced, err := rebuildPlan(plan, ops.timedUDF)
	if err != nil {
		t.Fatal(err)
	}
	_, sinks, failures, err := execPlan(sys, in, traced)
	if err != nil {
		t.Fatal(err)
	}
	if failures > 0 {
		t.Errorf("traced plan: %d records failed", failures)
	}
	if got, want := sinkTotals(sinks), ref.entityTotals(); got != want {
		t.Errorf("traced totals:\n%s\nuntraced totals:\n%s", got, want)
	}
	if msg := checkOpMetrics(plan); msg != "" {
		t.Error(msg)
	}
	calls := map[string]int64{}
	for name, st := range ops.byName {
		calls[opMetricName(name)] += st.calls.Load()
	}
	for _, l := range perLayer {
		if strings.HasPrefix(l.name, "op.") && calls[l.name] == 0 {
			t.Errorf("declared metric %s: no operator of the traced plan ran under it", l.name)
		}
	}
	records, _ := ref.docs()
	if len(ops.texts) != records {
		t.Errorf("captured %d analysis texts, want one per record (%d)", len(ops.texts), records)
	}
}

// Shard crashes are invisible in the output: a small chaos crawl stores
// the corpus the same faulty web yields under supervision without a
// crash plan.
func TestChaosCrashesLeaveCorpusUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two chaos crawls")
	}
	e := smallCrawlEnv(1, true)
	res, rep, err := e.crawl()
	if err != nil {
		t.Fatal(err)
	}
	crashed := summarize(res, rep)
	if crashed.restarts == 0 {
		t.Fatal("the crash plan restarted no shard; the test proves nothing")
	}
	r, err := e.newFleet()
	if err != nil {
		t.Fatal(err)
	}
	sup := supervisor.New(r, e.supervisorConfig(false))
	clean, err := sup.Run(e.seeds)
	if err != nil {
		t.Fatal(err)
	}
	if got := summarize(clean, sup.Report()); got.digest != crashed.digest {
		t.Error("the crashed crawl's corpus manifest differs from the crash-free crawl's")
	}
}

// benchmarkSpec is the part of BENCHMARK.json the program must agree with.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// Every workload runs clean on a second seed and reports exactly the
// end-to-end metrics BENCHMARK.json declares, none of them 0.
func TestSecondSeedRunsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		run, ok := workloads[w.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
		res, err := run.untraced(runConfig{workload: w.Name, seed: 2, seconds: 0.001})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !res.Correct || res.Failed > 0 || res.Attempted < minRepeats {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.Name, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(spec.EndToEnd) {
			t.Errorf("%s: %d metrics, BENCHMARK.json declares %d", w.Name, len(res.Metrics), len(spec.EndToEnd))
		}
		for _, m := range spec.EndToEnd {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit || got.Value == 0 {
				t.Errorf("%s: metric %s = %+v, want a non-zero value in %s", w.Name, m.Name, got, m.Unit)
			}
		}
	}
}

// BENCHMARK.json's per-layer list is the one the traced runs report.
func TestPerLayerListMatchesSpec(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the program %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s (%s), program has %s (%s)", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}
