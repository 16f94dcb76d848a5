package main

import (
	"sort"
	"strings"
)

// perLayer declares every per-layer metric a traced run reports, for all
// workloads: a layer a workload does not run reports 0. BENCHMARK.json's
// per_layer list is this list.
var perLayer = []struct{ name, unit string }{
	// Per-page crawl layers, from the serial replay; shares are of the
	// replayed system layers, the harness kept apart.
	{"mimetype.busy_s", "s"}, {"mimetype.share", "ratio"},
	{"htmlkit.busy_s", "s"}, {"htmlkit.share", "ratio"},
	{"boiler.busy_s", "s"}, {"boiler.p50_us", "us"}, {"boiler.p99_us", "us"},
	{"boiler.share", "ratio"}, {"boiler.precision", "ratio"}, {"boiler.recall", "ratio"},
	{"langid.calls", "count"}, {"langid.busy_s", "s"}, {"langid.p50_us", "us"},
	{"langid.p99_us", "us"}, {"langid.reject_frac", "ratio"}, {"langid.share", "ratio"},
	{"classify.busy_s", "s"}, {"classify.p99_us", "us"}, {"classify.share", "ratio"},
	{"classify.precision", "ratio"}, {"classify.recall", "ratio"},
	{"harness.fetch.busy_s", "s"}, {"harness.fetch.p99_us", "us"},
	// Fleet layers, from spans around the fleet primitives.
	{"crawler.step.busy_s", "s"}, {"crawler.cycles", "count"},
	{"crawler.fetch_attempts", "count"}, {"crawler.retries", "count"},
	{"crawler.filtered_frac", "ratio"}, {"crawldb.known", "count"},
	{"shard.rounds", "count"}, {"shard.barrier_wait_s", "s"}, {"shard.parallel_eff", "ratio"},
	{"shard.mail", "count"}, {"shard.deliver_s", "s"}, {"shard.merge_s", "s"},
	{"supervisor.round_s", "s"}, {"supervisor.restarts", "count"},
	{"checkpoint.bytes", "bytes"}, {"checkpoint.encode_s", "s"}, {"checkpoint.decode_s", "s"},
	{"obs.trace.spans", "count"}, {"obs.log.records", "count"}, {"obs.series.points", "count"},
	{"obs.prof.scopes", "count"}, {"obs.export_s", "s"},
	// The dataflow executor and its operators (in-situ wall, downstream
	// hand-off excluded).
	{"dataflow.records", "count"}, {"dataflow.exec_s", "s"},
	{"dataflow.noop_exec_s", "s"}, {"dataflow.overhead_frac", "ratio"},
	{"op.identity.wall_s", "s"}, {"op.annotate_sentences.wall_s", "s"},
	{"op.filter_degenerate_sentences.wall_s", "s"}, {"op.annotate_tokens.wall_s", "s"},
	{"op.count_sentences.wall_s", "s"}, {"op.token_count.wall_s", "s"},
	{"op.annotate_negation.wall_s", "s"}, {"op.annotate_pronouns.wall_s", "s"},
	{"op.annotate_parens.wall_s", "s"}, {"op.ling_stats.wall_s", "s"},
	{"op.count_chars.wall_s", "s"}, {"op.project.wall_s", "s"}, {"op.pos_tag.wall_s", "s"},
	{"op.annotate_entities_dict.gene.wall_s", "s"}, {"op.annotate_entities_dict.drug.wall_s", "s"},
	{"op.annotate_entities_dict.disease.wall_s", "s"}, {"op.annotate_entities_ml.gene.wall_s", "s"},
	{"op.annotate_entities_ml.drug.wall_s", "s"}, {"op.annotate_entities_ml.disease.wall_s", "s"},
	{"op.merge_entities.wall_s", "s"}, {"op.resolve_entity_overlaps.wall_s", "s"},
	{"op.filter_tla_entities.wall_s", "s"}, {"op.abbreviations.wall_s", "s"},
	{"op.entity_names.wall_s", "s"}, {"op.count_entities.wall_s", "s"}, {"op.union.wall_s", "s"},
	// IE layers, from the serial replay; wait is in-situ minus busy.
	{"nlp.busy_s", "s"}, {"nlp.wait_s", "s"}, {"nlp.share", "ratio"},
	{"postag.busy_s", "s"}, {"postag.wait_s", "s"}, {"postag.share", "ratio"},
	{"postag.p50_us", "us"}, {"postag.p99_us", "us"}, {"postag.sentences", "count"},
	{"postag.fail_frac", "ratio"},
	{"ling.busy_s", "s"}, {"ling.wait_s", "s"}, {"ling.share", "ratio"},
	{"ling.p99_us", "us"}, {"ling.calls_per_doc", "calls/doc"},
	{"crf.busy_s", "s"}, {"crf.wait_s", "s"}, {"crf.share", "ratio"}, {"crf.p99_us", "us"},
	{"crf.f1.gene", "ratio"}, {"crf.f1.drug", "ratio"}, {"crf.f1.disease", "ratio"},
	{"dict.busy_s", "s"}, {"dict.wait_s", "s"}, {"dict.share", "ratio"},
	{"dict.f1.gene", "ratio"}, {"dict.f1.drug", "ratio"}, {"dict.f1.disease", "ratio"},
	// The Go runtime over the untraced reference pass, and the traced
	// pass's slowdown against it.
	{"runtime.alloc_mb", "MB"}, {"runtime.gc_cycles", "count"}, {"runtime.gc_cpu_frac", "ratio"},
	{"bench.trace_overhead_pct", "%"},
}

// perLayerZero returns every per-layer metric at 0.
func perLayerZero() metricSet {
	m := metricSet{}
	for _, l := range perLayer {
		m.set(l.name, 0, l.unit)
	}
	return m
}

// declaredOnly removes the metrics perLayer does not declare and returns
// a failed-check message naming them ("" when there are none), so a
// layer that gained a metric fails the traced run instead of vanishing.
func declaredOnly(m metricSet) string {
	declared := perLayerZero()
	var extra []string
	for name := range m {
		if _, ok := declared[name]; !ok {
			extra = append(extra, name)
			delete(m, name)
		}
	}
	if len(extra) == 0 {
		return ""
	}
	sort.Strings(extra)
	return "undeclared per-layer metrics: " + strings.Join(extra, ", ")
}
