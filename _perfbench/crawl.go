package main

// The crawl and crawl-chaos workloads: the §4.1 focused crawl as a
// 4-shard fleet over the ~980k-page web. crawl runs the plain fleet on a
// clean web with every observability pillar off; crawl-chaos runs the
// same plan under the supervisor on a faulty web, with seeded shard
// crashes and every pillar on.

import (
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"time"

	"webtextie/internal/classify"
	"webtextie/internal/corpora"
	"webtextie/internal/crawldb"
	"webtextie/internal/crawler"
	"webtextie/internal/crawler/shard"
	"webtextie/internal/crawler/shard/supervisor"
	"webtextie/internal/obs/evlog"
	"webtextie/internal/obs/prof"
	"webtextie/internal/obs/series"
	"webtextie/internal/obs/trace"
	"webtextie/internal/rng"
	"webtextie/internal/seeds"
	"webtextie/internal/synthweb"
	"webtextie/internal/textgen"
)

const (
	crawlShards = 4
	// crawlScale is the synthweb.ScaledConfig factor: 25,200 hosts and
	// ~980k pages.
	crawlScale = 36
	// crawlBudget is the fleet page budget. The fleet enforces it at round
	// barriers, so a crawl fetches somewhat more.
	crawlBudget = 4000
	// crawlFetchList is each shard's fetch list per cycle: a quarter of the
	// default, so a crawl takes several rounds and exercises the barriers.
	crawlFetchList = 250
	// chaosCrashRounds is how many rounds of a chaos crawl see a shard
	// crash: one per round, each shard once, so the default recovery
	// budget never fences a shard.
	chaosCrashRounds = crawlShards
)

// crawlLexicon sizes the entity lexicon behind the web's text, as in the
// fleet benchmarks of the shard package.
var crawlLexicon = textgen.LexiconSizes{Genes: 500, Drugs: 150, Diseases: 150}

// crawlEnv is one crawl's inputs: the shard web factory, the trained
// relevance classifier and the seed list, all pure functions of the seed.
type crawlEnv struct {
	seed   uint64
	chaos  bool
	webCfg synthweb.Config
	clf    *classify.NaiveBayes
	seeds  []string
	// budget is the fleet page budget (crawlBudget; tests shrink it).
	budget int
	// webs holds every web the factory built since the last reset;
	// shard.New calls the factory sequentially.
	webs []*synthweb.Web
}

// newCrawlEnv builds the inputs: the web factory, classifier training and
// seed generation. This is the set-up a crawl's setup_s measures.
func newCrawlEnv(seed uint64, chaos bool) *crawlEnv {
	cfg := synthweb.ScaledConfig(seed, crawlScale)
	if chaos {
		cfg.FailureRate = 0.05
		cfg.DeadHostShare = 0.02
		cfg.RateLimitShare = 0.05
		cfg.SlowHostShare = 0.05
		cfg.TruncateRate = 0.02
	}
	e := &crawlEnv{seed: seed, chaos: chaos, webCfg: cfg, budget: crawlBudget}
	lex, gen := e.text()
	e.clf = corpora.TrainClassifier(gen, seed+2, 300)
	catalog := seeds.BuildCatalog(seed+3, lex, seeds.CatalogSizes{General: 10, Disease: 60, Drug: 40, Gene: 80})
	e.seeds = seeds.Generate(seeds.DefaultEngines(seed+4, synthweb.New(cfg, gen)), catalog).SeedURLs
	return e
}

// text builds a fresh lexicon and generator; every call yields identical
// but independent instances.
func (e *crawlEnv) text() (*textgen.Lexicon, *textgen.Generator) {
	lex := textgen.NewLexicon(rng.New(e.seed), crawlLexicon, 0.75)
	return lex, textgen.NewGenerator(e.seed+1, lex, textgen.DefaultProfiles())
}

// newWeb is the shard web factory: a private universe per shard.
func (e *crawlEnv) newWeb() *synthweb.Web {
	_, gen := e.text()
	w := synthweb.New(e.webCfg, gen)
	e.webs = append(e.webs, w)
	return w
}

func (e *crawlEnv) fleetConfig() shard.Config {
	c := crawler.DefaultConfig()
	c.MaxPages = e.budget
	c.FetchListSize = crawlFetchList
	return shard.Config{Crawl: c, Shards: crawlShards, Parallelism: min(crawlShards, parallelism())}
}

// newFleet builds the runner, with every pillar attached on chaos.
func (e *crawlEnv) newFleet() (*shard.Runner, error) {
	e.webs = nil
	r, err := shard.New(e.fleetConfig(), e.newWeb, e.clf)
	if err != nil {
		return nil, err
	}
	if e.chaos {
		r.WithTrace(trace.DefaultConfig(e.seed)).
			WithLog(evlog.DefaultConfig(e.seed)).
			WithSeries(series.DefaultConfig()).
			WithProf(prof.Config{})
	}
	return r, nil
}

// supervisorConfig is the chaos plan's supervision. With crash set,
// one shard crashes mid-step in each of the first chaosCrashRounds
// rounds; the seed picks which, so every seed restarts the same number
// of steps.
func (e *crawlEnv) supervisorConfig(crash bool) supervisor.Config {
	cfg := supervisor.Config{RecoveryBudget: supervisor.DefaultRecoveryBudget, StallFactor: 3, Seed: e.seed}
	if crash {
		plan := &synthweb.CrashPlan{Seed: e.seed}
		for round := 0; round < chaosCrashRounds; round++ {
			shard := int((e.seed + uint64(round)) % crawlShards)
			plan.Points = append(plan.Points, synthweb.CrashPoint{Shard: shard, Round: round, Attempts: 1})
		}
		cfg.Crash = plan
	}
	return cfg
}

// crawl is the timed phase: fleet construction to the merged result, and
// on chaos also the rendering of every pillar's export.
func (e *crawlEnv) crawl() (*shard.Result, *supervisor.Report, error) {
	r, err := e.newFleet()
	if err != nil {
		return nil, nil, err
	}
	if !e.chaos {
		return r.Run(e.seeds), nil, nil
	}
	sup := supervisor.New(r, e.supervisorConfig(true))
	res, err := sup.Run(e.seeds)
	if err != nil {
		return nil, nil, err
	}
	rep := sup.Report()
	if err := exportPillars(res, rep); err != nil {
		return nil, nil, err
	}
	return res, rep, nil
}

// exportPillars renders every pillar the way the crawl command's export
// flags do; the renderings are discarded.
func exportPillars(res *shard.Result, rep *supervisor.Report) error {
	_ = res.Logs.Logfmt() + res.Series.CSV() + res.Profile.Folded() +
		res.Metrics.Text() + rep.Summary(res.Degraded)
	for _, render := range []func() ([]byte, error){
		res.Traces.JSON, res.Traces.Chrome, res.Profile.JSON, res.Series.JSON,
	} {
		if _, err := render(); err != nil {
			return fmt.Errorf("exporting pillars: %w", err)
		}
	}
	return nil
}

// crawlOutcome is what a crawl's checks and metrics need from its result.
type crawlOutcome struct {
	fetched, relevant, docs int
	// failed counts URLs left unfetched after at least one attempt
	// (retries exhausted, dead hosts, permanent errors, retries pending
	// when the budget ended the crawl); attempted counts every URL
	// fetched at least once.
	failed, attempted int
	digest            uint64
	restarts          int
	degraded          int
}

func summarize(res *shard.Result, rep *supervisor.Report) crawlOutcome {
	o := crawlOutcome{
		fetched:  res.Stats.Fetched,
		relevant: res.Stats.Relevant,
		docs:     len(res.Relevant) + len(res.IrrelevantPages),
		digest:   digest(res.CorpusManifest()),
		degraded: len(res.Degraded),
	}
	for _, pr := range res.PerShard {
		snap := pr.CrawlDB.Snapshot()
		for u, st := range snap.Status {
			switch {
			case st == crawldb.Failed, st == crawldb.Unfetched && snap.Retry[u].Attempts > 0:
				o.failed++
				o.attempted++
			case st == crawldb.Fetched, st == crawldb.Filtered:
				o.attempted++
			}
		}
	}
	if rep != nil {
		for _, n := range rep.Restarts {
			o.restarts += n
		}
	}
	return o
}

func digest(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// check verifies one crawl against the plan and against the run's first
// crawl of the same seed; it returns "" when the crawl is correct.
func (e *crawlEnv) check(o crawlOutcome, ref *crawlOutcome) string {
	switch {
	case o.fetched < e.budget:
		return fmt.Sprintf("fetched %d pages, want the full %d budget", o.fetched, e.budget)
	case ref != nil && o.digest != ref.digest:
		return "corpus manifest differs from the first crawl of this seed"
	case e.chaos && o.degraded > 0:
		return fmt.Sprintf("%d degraded partitions", o.degraded)
	case ref != nil && o.restarts != ref.restarts:
		return fmt.Sprintf("%d shard restarts, the first crawl of this seed had %d", o.restarts, ref.restarts)
	}
	return ""
}

// timedCrawl is one crawl, its set-up and its timed phase measured apart.
type timedCrawl struct {
	env           *crawlEnv
	res           *shard.Result
	rep           *supervisor.Report
	setupS, wallS float64
	peakMB        float64
	// rtBefore/rtAfter bracket the timed phase.
	rtBefore, rtAfter runtimeCounters
}

func runTimedCrawl(seed uint64, chaos bool) (*timedCrawl, error) {
	runtime.GC()
	t0 := time.Now()
	tc := &timedCrawl{env: newCrawlEnv(seed, chaos)}
	tc.setupS = time.Since(t0).Seconds()
	hp := startHeapPeak()
	tc.rtBefore = readRuntime()
	t1 := time.Now()
	var err error
	tc.res, tc.rep, err = tc.env.crawl()
	tc.wallS = time.Since(t1).Seconds()
	tc.rtAfter = readRuntime()
	tc.peakMB = hp.Stop()
	return tc, err
}

// runCrawl is the untraced run of crawl (chaos false) and crawl-chaos.
func runCrawl(chaos bool) func(runConfig) (*result, error) {
	return func(rc runConfig) (*result, error) {
		res := &result{Correct: true, Metrics: metricSet{}}
		var setup, pages, docs, peak, ok []float64
		var ref *crawlOutcome
		deadline := time.Now().Add(time.Duration(rc.seconds * float64(time.Second)))
		for res.Attempted < minRepeats || time.Now().Before(deadline) {
			tc, err := runTimedCrawl(rc.seed, chaos)
			if err != nil {
				return nil, err
			}
			o := summarize(tc.res, tc.rep)
			fmt.Fprintf(os.Stderr, "crawl: setup %.3fs, %d pages in %.3fs over %d rounds, peak heap %.0f MB\n",
				tc.setupS, o.fetched, tc.wallS, tc.res.Rounds, tc.peakMB)
			// A repetition that fails its check counts as failing every URL.
			okFrac := 0.0
			if res.record(tc.env.check(o, ref)) {
				okFrac = 1 - ratio(float64(o.failed), float64(o.attempted), 0)
			}
			ok = append(ok, okFrac)
			if ref == nil {
				ref = &o
			}
			setup = append(setup, tc.setupS)
			pages = append(pages, float64(o.fetched)/tc.wallS)
			docs = append(docs, float64(o.docs)/tc.wallS)
			peak = append(peak, tc.peakMB)
		}
		m := res.Metrics
		m.set("setup_s", median(setup), "s")
		m.set("pages_per_s", median(pages), "pages/s")
		m.set("docs_per_s", median(docs), "docs/s")
		m.set("peak_heap_mb", median(peak), "MB")
		m.set("harvest_pct", 100*ratio(float64(ref.relevant), float64(ref.fetched), 0), "%")
		m.set("ok_frac", mean(ok), "ratio")
		// A crawl runs no tagger: both scores are over zero items, which
		// eval.PRF scores as 1.
		m.set("ner_f1", ratio(0, 0, 1), "ratio")
		m.set("pos_acc", ratio(0, 0, 1), "ratio")
		return res, nil
	}
}
