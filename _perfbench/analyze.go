package main

// The analyze workload: the §4.3 content analysis, System.AnalyzeAll's
// loop over the four corpora (long web net text, short Medline
// abstracts, very long PMC full texts). core.NewSystem — corpus
// construction including a crawl, POS and CRF training, dictionary
// builds — is set-up; the timed phase is the analysis flow alone.

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"webtextie/internal/core"
	"webtextie/internal/corpora"
	"webtextie/internal/eval"
	"webtextie/internal/rng"
	"webtextie/internal/textgen"
)

// setupRepeats is how many systems an analyze run builds for setup_s.
const setupRepeats = 3

// analyzeConfig is the workload's system: the quick configuration with
// an 800-page crawl of a 700-host web (web seed 1), and the generated
// corpora at 1:50,000 instead of 1:100,000 (433 Medline abstracts, 5 PMC
// full texts). The system, and so the text analysed, is the same for
// every workload seed, as a reference corpus would be: throughput then
// compares runs over the same work, and harvest_pct, ner_f1 and pos_acc
// do not vary between seeds.
func analyzeConfig() core.Config {
	cfg := core.TestConfig()
	cfg.Corpora.Web.Seed = 1
	cfg.Corpora.Web.NumHosts = 700
	cfg.Corpora.Crawl.MaxPages = 800
	cfg.Corpora.ScaleFactor = 50_000
	return cfg
}

// newSystems builds the system n times and returns the last one with the
// median build time.
func newSystems(n int) (*core.System, float64) {
	var sys *core.System
	var times []float64
	for i := 0; i < n; i++ {
		sys = nil // the previous build is garbage before the next one
		runtime.GC()
		t0 := time.Now()
		sys = core.NewSystem(analyzeConfig())
		times = append(times, time.Since(t0).Seconds())
	}
	return sys, median(times)
}

// analysisInput is what an analyze run analyses: the system's four
// corpora, each with its documents in an order the workload seed picks.
// The order decides when each record reaches the executor's workers
// (where the long PMC texts fall), not the work.
type analysisInput map[textgen.CorpusKind]*corpora.Corpus

func newAnalysisInput(sys *core.System, seed uint64) analysisInput {
	in := analysisInput{}
	r := rng.New(seed)
	for _, kind := range textgen.CorpusKinds {
		c := *sys.Set.Corpus(kind)
		c.Docs = append([]corpora.Document(nil), c.Docs...)
		r.Shuffle(len(c.Docs), func(i, j int) { c.Docs[i], c.Docs[j] = c.Docs[j], c.Docs[i] })
		in[kind] = &c
	}
	return in
}

// corpusRun is one corpus's analysis within a pass.
type corpusRun struct {
	analysis *core.CorpusAnalysis
	wallS    float64
	// entities holds the flow's entities per document (gold-text corpora
	// only, for scoring).
	entities map[string][]core.EntityAnn
}

// analysisPass is one timed run of the analysis over all four corpora.
type analysisPass struct {
	corpora map[textgen.CorpusKind]*corpusRun
	wallS   float64
	peakMB  float64
}

// goldText reports whether a corpus's analysis text is its gold text, so
// gold mention offsets apply.
func goldText(kind textgen.CorpusKind) bool {
	return kind == textgen.Medline || kind == textgen.PMC
}

// analyzeAll is the timed phase: AnalyzeAll's loop with each corpus timed
// on its own and the entity callback collecting gold-text documents.
func analyzeAll(sys *core.System, in analysisInput) (*analysisPass, error) {
	p := &analysisPass{corpora: map[textgen.CorpusKind]*corpusRun{}}
	hp := startHeapPeak()
	t0 := time.Now()
	reg := sys.Registry()
	for _, kind := range textgen.CorpusKinds {
		cr := &corpusRun{}
		var onEntities func(string, []core.EntityAnn)
		if goldText(kind) {
			cr.entities = map[string][]core.EntityAnn{}
			onEntities = func(id string, ents []core.EntityAnn) { cr.entities[id] = ents }
		}
		t1 := time.Now()
		a, err := sys.AnalyzeCorpusFunc(reg, in[kind], parallelism(), onEntities)
		if err != nil {
			hp.Stop()
			return nil, err
		}
		cr.wallS = time.Since(t1).Seconds()
		cr.analysis = a
		p.corpora[kind] = cr
	}
	p.wallS = time.Since(t0).Seconds()
	p.peakMB = hp.Stop()
	return p, nil
}

// docs returns the documents the pass analysed, and those of the two web
// corpora.
func (p *analysisPass) docs() (all, web int) {
	for kind, cr := range p.corpora {
		all += cr.analysis.Docs
		if !goldText(kind) {
			web += cr.analysis.Docs
		}
	}
	return all, web
}

func (p *analysisPass) webWallS() float64 {
	return p.corpora[textgen.Relevant].wallS + p.corpora[textgen.Irrelevant].wallS
}

// flowFailures counts records the executor errored or quarantined.
func (p *analysisPass) flowFailures() int64 {
	var n int64
	for _, cr := range p.corpora {
		n += cr.analysis.FlowErrors + cr.analysis.FlowQuarantined
	}
	return n
}

// mentionTotals is one corpus's mention counts by method and type, the
// form of CorpusAnalysis.TotalMentions.
type mentionTotals = map[core.Method]map[textgen.EntityType]int

// formatTotals renders per-corpus mention totals, one line per corpus.
func formatTotals(totals map[textgen.CorpusKind]mentionTotals) string {
	var s string
	for _, kind := range textgen.CorpusKinds {
		s += kind.String() + ":"
		for _, m := range core.Methods {
			for _, t := range textgen.EntityTypes {
				s += fmt.Sprintf(" %s/%s=%d", m, t, totals[kind][m][t])
			}
		}
		s += "\n"
	}
	return s
}

// entityTotals renders the per-corpus mention totals by method and type.
func (p *analysisPass) entityTotals() string {
	totals := map[textgen.CorpusKind]mentionTotals{}
	for kind, cr := range p.corpora {
		totals[kind] = cr.analysis.TotalMentions
	}
	return formatTotals(totals)
}

// check verifies one pass against the run's first pass.
func (p *analysisPass) check(ref *analysisPass) string {
	if n := p.flowFailures(); n > 0 {
		return fmt.Sprintf("%d records errored or quarantined", n)
	}
	if ref != nil && p.entityTotals() != ref.entityTotals() {
		return "per-corpus entity totals differ from the first pass"
	}
	return ""
}

// nerScore scores the flow's entities (dictionary and ML, one span per
// distinct type and offset pair) against the gold mentions of the
// gold-text corpora, summed over types.
func nerScore(set *corpora.Set, p *analysisPass) eval.PRF {
	var total eval.PRF
	for _, kind := range textgen.CorpusKinds {
		if !goldText(kind) {
			continue
		}
		for _, d := range set.Corpus(kind).Docs {
			ents := p.corpora[kind].entities[d.ID]
			for _, t := range textgen.EntityTypes {
				total.Add(eval.ScoreSpans(goldSpans(d.Gold, t), entitySpans(ents, t)))
			}
		}
	}
	return total
}

func goldSpans(d *textgen.Doc, t textgen.EntityType) []eval.Span {
	var out []eval.Span
	for _, m := range d.Mentions {
		if m.Type == t {
			out = append(out, eval.Span{Start: m.Start, End: m.End})
		}
	}
	return out
}

// entitySpans returns the distinct spans of one type, from either method.
func entitySpans(ents []core.EntityAnn, t textgen.EntityType) []eval.Span {
	seen := map[eval.Span]bool{}
	var out []eval.Span
	for _, e := range ents {
		sp := eval.Span{Start: e.Start, End: e.End}
		if e.Type != t || seen[sp] {
			continue
		}
		seen[sp] = true
		out = append(out, sp)
	}
	return out
}

// posAccuracy tags the gold-tokenized Medline sentences with the system's
// tagger; sentences over the tagger's limit are skipped.
func posAccuracy(sys *core.System) float64 {
	var hit, total int
	for _, d := range sys.Set.Corpus(textgen.Medline).Docs {
		for _, sent := range d.Gold.Sentences {
			words := make([]string, len(sent.Tokens))
			for i, tok := range sent.Tokens {
				words[i] = tok.Text
			}
			tags, err := sys.POS.Tag(words)
			if err != nil {
				continue
			}
			for i, tok := range sent.Tokens {
				total++
				if tags[i] == tok.Tag {
					hit++
				}
			}
		}
	}
	return ratio(float64(hit), float64(total), 1)
}

// harvestPct is the harvest rate of the crawl that built the web corpora.
func harvestPct(sys *core.System) float64 {
	st := sys.Set.Crawl.Stats
	return 100 * ratio(float64(st.Relevant), float64(st.Fetched), 0)
}

// runAnalyze is the untraced analyze run.
func runAnalyze(rc runConfig) (*result, error) {
	sys, setupS := newSystems(setupRepeats)
	in := newAnalysisInput(sys, rc.seed)
	res := &result{Correct: true, Metrics: metricSet{}}
	var docsPS, pagesPS, peak, ok []float64
	var ref *analysisPass
	deadline := time.Now().Add(time.Duration(rc.seconds * float64(time.Second)))
	for res.Attempted < minRepeats || time.Now().Before(deadline) {
		p, err := analyzeAll(sys, in)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "analyze: setup %.3fs, pass %.3fs (web %.3fs), peak heap %.0f MB\n",
			setupS, p.wallS, p.webWallS(), p.peakMB)
		all, web := p.docs()
		// A pass that fails its check counts as failing every record.
		okFrac := 0.0
		if res.record(p.check(ref)) {
			okFrac = 1 - ratio(float64(p.flowFailures()), float64(all), 0)
		}
		ok = append(ok, okFrac)
		if ref == nil {
			ref = p
		}
		docsPS = append(docsPS, float64(all)/p.wallS)
		pagesPS = append(pagesPS, float64(web)/p.webWallS())
		peak = append(peak, p.peakMB)
	}
	ner := nerScore(sys.Set, ref)
	m := res.Metrics
	m.set("setup_s", setupS, "s")
	m.set("docs_per_s", median(docsPS), "docs/s")
	m.set("pages_per_s", median(pagesPS), "pages/s")
	m.set("peak_heap_mb", median(peak), "MB")
	m.set("harvest_pct", harvestPct(sys), "%")
	m.set("ner_f1", ner.F1(), "ratio")
	m.set("pos_acc", posAccuracy(sys), "ratio")
	m.set("ok_frac", mean(ok), "ratio")
	return res, nil
}
