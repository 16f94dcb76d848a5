package main

// The traced analysis: the optimized analysis plan rebuilt from copies of
// its operators with every UDF wrapped in a span (calls and in-situ wall
// time); the same topology run with pass-through UDFs
// for the executor's own cost; and each IE layer's exported function
// replayed serially on the documents the operators saw, for busy time.

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"webtextie/internal/core"
	"webtextie/internal/dataflow"
	"webtextie/internal/eval"
	"webtextie/internal/ie/dict"
	"webtextie/internal/ling"
	"webtextie/internal/nlp"
	"webtextie/internal/obs"
	"webtextie/internal/textgen"
)

// opStats accumulates one operator's wrapped calls across its workers.
type opStats struct {
	calls atomic.Int64
	// wallNs is in-situ wall time minus time spent handing records
	// downstream (emit blocks on the next operator's queue).
	wallNs atomic.Int64
}

// opTimers maps operator names to their counters; nodes sharing a name
// (the two project operators) share an entry.
type opTimers struct {
	byName map[string]*opStats
	// texts captures, per document id, the text the pos_tag operator
	// receives: the analysis text after sentence filtering.
	mu    sync.Mutex
	texts map[string]string
}

// timedUDF wraps an operator's UDF in a span.
func (ts *opTimers) timedUDF(op *dataflow.Op) dataflow.UDF {
	st := ts.byName[op.Name]
	if st == nil {
		st = &opStats{}
		ts.byName[op.Name] = st
	}
	fn, capture := op.Fn, op.Name == "pos_tag"
	return func(rec dataflow.Record, emit dataflow.Emit) error {
		if capture {
			id, _ := rec["id"].(string)
			text, _ := rec["text"].(string)
			ts.mu.Lock()
			ts.texts[id] = text
			ts.mu.Unlock()
		}
		var emitNs time.Duration
		t0 := time.Now()
		err := fn(rec, func(r dataflow.Record) {
			e0 := time.Now()
			emit(r)
			emitNs += time.Since(e0)
		})
		st.wallNs.Add(int64(time.Since(t0) - emitNs))
		st.calls.Add(1)
		return err
	}
}

// passThrough is the no-op UDF: the plan's topology with no operator work.
func passThrough(*dataflow.Op) dataflow.UDF {
	return func(rec dataflow.Record, emit dataflow.Emit) error {
		emit(rec)
		return nil
	}
}

// rebuildPlan copies a plan's topology with copies of its operators whose
// UDFs come from wrap. The source plan is left untouched.
func rebuildPlan(p *dataflow.Plan, wrap func(*dataflow.Op) dataflow.UDF) (*dataflow.Plan, error) {
	out := &dataflow.Plan{}
	copied := map[*dataflow.Node]*dataflow.Node{}
	for len(copied) < p.Size() {
		progress := false
		for _, n := range p.Nodes() {
			if copied[n] != nil {
				continue
			}
			inputs := make([]*dataflow.Node, 0, len(n.Inputs))
			for _, in := range n.Inputs {
				if copied[in] != nil {
					inputs = append(inputs, copied[in])
				}
			}
			if len(inputs) < len(n.Inputs) {
				continue
			}
			op := *n.Op
			op.Fn = wrap(n.Op)
			copied[n] = out.Add(&op, inputs...)
			progress = true
		}
		if !progress {
			return nil, fmt.Errorf("plan has a cycle")
		}
	}
	return out, nil
}

// execPlan runs a plan over every corpus as AnalyzeCorpusFunc does and
// returns the summed Execute wall time, the sink records per corpus and
// the records errored or quarantined.
func execPlan(sys *core.System, in analysisInput, plan *dataflow.Plan) (float64, map[textgen.CorpusKind][]dataflow.Record, int64, error) {
	sinks := plan.Sinks()
	if len(sinks) != 1 {
		return 0, nil, 0, fmt.Errorf("analysis plan has %d sinks", len(sinks))
	}
	var wall float64
	var failures int64
	out := map[textgen.CorpusKind][]dataflow.Record{}
	for _, kind := range textgen.CorpusKinds {
		docs := in[kind].Docs
		records := make([]dataflow.Record, len(docs))
		for i, d := range docs {
			records[i] = dataflow.Record{"id": d.ID, "text": d.Text}
		}
		t0 := time.Now()
		results, st, err := dataflow.Execute(plan, records, dataflow.ExecConfig{
			DoP: parallelism(), Metrics: obs.Default(),
			Policy: sys.Cfg.ExecPolicy, OpRetries: sys.Cfg.ExecOpRetries})
		wall += time.Since(t0).Seconds()
		if err != nil {
			return 0, nil, 0, err
		}
		failures += st.TotalErrors() + st.TotalQuarantined()
		out[kind] = results[sinks[0].ID()]
	}
	return wall, out, failures, nil
}

// sinkTotals renders the per-corpus mention totals of a plan's sink
// records, counted from their entity annotations.
func sinkTotals(sinks map[textgen.CorpusKind][]dataflow.Record) string {
	totals := map[textgen.CorpusKind]mentionTotals{}
	for _, kind := range textgen.CorpusKinds {
		t := mentionTotals{}
		for _, m := range core.Methods {
			t[m] = map[textgen.EntityType]int{}
		}
		for _, rec := range sinks[kind] {
			ents, _ := rec["entities"].([]core.EntityAnn)
			for _, e := range ents {
				t[e.Method][e.Type]++
			}
		}
		totals[kind] = t
	}
	return formatTotals(totals)
}

// ieReplay is each IE layer's exported function run serially.
type ieReplay struct {
	nlp, postag, dict, crf, ling layer
	posFailed                    int
	// quality per entity type against gold mentions (gold-text corpora).
	dictQ, crfQ map[textgen.EntityType]*eval.PRF
}

// replayIE runs the IE layers over every document's analysis text as the
// operators saw it.
func replayIE(sys *core.System, in analysisInput, texts map[string]string) *ieReplay {
	rp := &ieReplay{dictQ: map[textgen.EntityType]*eval.PRF{}, crfQ: map[textgen.EntityType]*eval.PRF{}}
	for _, t := range textgen.EntityTypes {
		rp.dictQ[t], rp.crfQ[t] = &eval.PRF{}, &eval.PRF{}
	}
	var matches []dict.Match
	for _, kind := range textgen.CorpusKinds {
		for _, d := range in[kind].Docs {
			text, ok := texts[d.ID]
			if !ok {
				continue
			}
			t0 := time.Now()
			spans := nlp.SplitSentences(text)
			toks := make([][]nlp.TokenSpan, len(spans))
			for i, s := range spans {
				toks[i] = nlp.Tokenize(text[s.Start:s.End], s.Start)
			}
			rp.nlp.since(t0)

			for _, sent := range toks {
				words := make([]string, len(sent))
				for j, tok := range sent {
					words[j] = tok.Text
				}
				t0 = time.Now()
				_, err := sys.POS.Tag(words)
				rp.postag.since(t0)
				if err != nil {
					rp.posFailed++
				}
			}

			for _, t := range textgen.EntityTypes {
				t0 = time.Now()
				matches = sys.DictMatchers[t].FindAppend(matches[:0], text)
				rp.dict.since(t0)
				t0 = time.Now()
				found := sys.CRFTaggers[t].Extract(text)
				rp.crf.since(t0)
				if goldText(kind) {
					gold := goldSpans(d.Gold, t)
					var ds, cs []eval.Span
					for _, m := range matches {
						ds = append(ds, eval.Span{Start: m.Start, End: m.End})
					}
					for _, m := range found {
						cs = append(cs, eval.Span{Start: m.Start, End: m.End})
					}
					rp.dictQ[t].Add(eval.ScoreSpans(gold, ds))
					rp.crfQ[t].Add(eval.ScoreSpans(gold, cs))
				}
			}

			t0 = time.Now()
			ling.Analyze(d.ID, text, spans)
			rp.ling.since(t0)
			t0 = time.Now()
			ling.Measure(d.ID, text)
			rp.ling.since(t0)
		}
	}
	return rp
}

// lingOps are the operators whose UDFs call into the ling package.
var lingOps = []string{"annotate_negation", "annotate_pronouns", "annotate_parens", "ling_stats"}

// layerOps maps each IE layer to the operators whose UDFs call it, for
// wait time (in-situ wall minus serial busy time).
var layerOps = map[string][]string{
	"nlp":    {"annotate_sentences", "filter_degenerate_sentences", "annotate_tokens"},
	"postag": {"pos_tag"},
	"dict":   {"annotate_entities_dict:gene", "annotate_entities_dict:drug", "annotate_entities_dict:disease"},
	"crf":    {"annotate_entities_ml:gene", "annotate_entities_ml:drug", "annotate_entities_ml:disease"},
	"ling":   lingOps,
}

// opMetricName writes an operator name as a metric name.
func opMetricName(op string) string {
	return "op." + strings.ReplaceAll(op, ":", ".") + ".wall_s"
}

// checkOpMetrics compares the optimized plan's operators with the
// declared op.* metrics, so a renamed, split or removed operator fails
// the traced run instead of reporting 0 or being dropped.
func checkOpMetrics(plan *dataflow.Plan) string {
	inPlan := map[string]bool{}
	for _, n := range plan.Nodes() {
		inPlan[opMetricName(n.Op.Name)] = true
	}
	var missing, extra []string
	for _, l := range perLayer {
		if !strings.HasPrefix(l.name, "op.") {
			continue
		}
		if !inPlan[l.name] {
			missing = append(missing, l.name)
		}
		delete(inPlan, l.name)
	}
	for name := range inPlan {
		extra = append(extra, name)
	}
	if len(missing)+len(extra) == 0 {
		return ""
	}
	sort.Strings(extra)
	return fmt.Sprintf("analysis plan operators differ from the declared op metrics: no operator for [%s], undeclared [%s]",
		strings.Join(missing, " "), strings.Join(extra, " "))
}

// traceAnalyze is the traced analyze run.
func traceAnalyze(rc runConfig) (*result, error) {
	res := &result{Correct: true, Metrics: perLayerZero()}
	sys, _ := newSystems(1)
	in := newAnalysisInput(sys, rc.seed)

	// Untraced reference pass: runtime counters, the trace-overhead
	// baseline and the totals the traced pass must reproduce.
	before := readRuntime()
	ref, err := analyzeAll(sys, in)
	if err != nil {
		return nil, err
	}
	after := readRuntime()
	res.record(ref.check(nil))

	plan := sys.Registry().AnalysisFlow(false)
	dataflow.Optimize(plan)
	ops := &opTimers{byName: map[string]*opStats{}, texts: map[string]string{}}
	traced, err := rebuildPlan(plan, ops.timedUDF)
	if err != nil {
		return nil, err
	}
	execS, sinks, failures, err := execPlan(sys, in, traced)
	if err != nil {
		return nil, err
	}
	var msg string
	switch {
	case failures > 0:
		msg = fmt.Sprintf("traced pass: %d records errored or quarantined", failures)
	case sinkTotals(sinks) != ref.entityTotals():
		msg = "traced pass: per-corpus entity totals differ from the untraced pass"
	default:
		msg = checkOpMetrics(plan)
	}
	noop, err := rebuildPlan(plan, passThrough)
	if err != nil {
		return nil, err
	}
	noopS, _, _, err := execPlan(sys, in, noop)
	if err != nil {
		return nil, err
	}
	rp := replayIE(sys, in, ops.texts)

	m := res.Metrics
	setRuntime(m, before, after)
	m.set("bench.trace_overhead_pct", 100*(execS/ref.wallS-1), "%")
	records, _ := ref.docs()
	m.set("dataflow.records", float64(records), "count")
	m.set("dataflow.exec_s", execS, "s")
	m.set("dataflow.noop_exec_s", noopS, "s")
	m.set("dataflow.overhead_frac", ratio(noopS, execS, 0), "ratio")
	for name, st := range ops.byName {
		m.set(opMetricName(name), float64(st.wallNs.Load())/1e9, "s")
	}
	inSitu := func(layer string) float64 {
		var ns int64
		for _, op := range layerOps[layer] {
			if st := ops.byName[op]; st != nil {
				ns += st.wallNs.Load()
			}
		}
		return float64(ns) / 1e9
	}
	var lingCalls int64
	for _, op := range lingOps {
		if st := ops.byName[op]; st != nil {
			lingCalls += st.calls.Load()
		}
	}

	busy := map[string]*layer{"nlp": &rp.nlp, "postag": &rp.postag, "dict": &rp.dict, "crf": &rp.crf, "ling": &rp.ling}
	var total float64
	for _, l := range busy {
		total += l.busyS()
	}
	for name, l := range busy {
		m.set(name+".busy_s", l.busyS(), "s")
		m.set(name+".wait_s", inSitu(name)-l.busyS(), "s")
		m.set(name+".share", ratio(l.busyS(), total, 0), "ratio")
	}
	m.set("postag.p50_us", rp.postag.p(50), "us")
	m.set("postag.p99_us", rp.postag.p(99), "us")
	m.set("postag.sentences", float64(rp.postag.calls()), "count")
	m.set("postag.fail_frac", ratio(float64(rp.posFailed), float64(rp.postag.calls()), 0), "ratio")
	m.set("ling.p99_us", rp.ling.p(99), "us")
	m.set("ling.calls_per_doc", ratio(float64(lingCalls), float64(records), 0), "calls/doc")
	m.set("crf.p99_us", rp.crf.p(99), "us")
	for _, t := range textgen.EntityTypes {
		m.set("dict.f1."+t.String(), rp.dictQ[t].F1(), "ratio")
		m.set("crf.f1."+t.String(), rp.crfQ[t].F1(), "ratio")
	}
	if msg == "" {
		msg = declaredOnly(m)
	}
	res.record(msg)
	return res, nil
}
