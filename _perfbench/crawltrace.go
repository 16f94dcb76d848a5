package main

// The traced crawl: the fleet driven through the primitives Runner.Round
// composes (crawl) or through supervisor rounds with checkpoint probes at
// every barrier (crawl-chaos), each call inside a span; then the per-page
// filter chain replayed in one goroutine over the pages the crawl fetched.

import (
	"fmt"
	"sort"
	"time"

	"webtextie/internal/boiler"
	"webtextie/internal/classify"
	"webtextie/internal/crawldb"
	"webtextie/internal/crawler"
	"webtextie/internal/crawler/shard"
	"webtextie/internal/crawler/shard/supervisor"
	"webtextie/internal/htmlkit"
	"webtextie/internal/langid"
	"webtextie/internal/mimetype"
	"webtextie/internal/synthweb"
)

// tracedFleet is what the traced drive measured beyond its spans.
type tracedFleet struct {
	res *shard.Result
	rep *supervisor.Report
	// fetches is the fleet's fetch attempts, read from its webs.
	fetches int
	// barrierWait sums, over rounds, the slowest step minus each step.
	barrierWait time.Duration
	// mail is the frontier growth at barriers: cross-shard discoveries
	// that became new frontier entries.
	mail int
	// ckptBytes sums the barrier checkpoints' sizes.
	ckptBytes int
	// workers is the largest number of shards stepped in parallel.
	workers int
}

func (f *tracedFleet) pending(r *shard.Runner) int {
	n := 0
	for i := 0; i < r.Shards(); i++ {
		n += r.Shard(i).Pending()
	}
	return n
}

// tracedCrawl runs the crawl plan with a span on every fleet primitive.
func (e *crawlEnv) tracedCrawl(tr *tracer) (*tracedFleet, error) {
	f := &tracedFleet{}
	root := tr.begin("fleet", -1)
	s := tr.begin("shard.new", root)
	r, err := e.newFleet()
	tr.end(s)
	if err != nil {
		return nil, err
	}
	var sup *supervisor.Supervisor
	if e.chaos {
		sup = supervisor.New(r, e.supervisorConfig(true))
	}
	r.Seed(e.seeds)
	for {
		var cont bool
		if e.chaos {
			cont, err = f.supervisedRound(tr, root, r, sup)
		} else {
			cont, err = f.round(tr, root, r)
		}
		if err != nil {
			return nil, err
		}
		if !cont {
			break
		}
	}
	s = tr.begin("shard.merge", root)
	f.res = r.Finish()
	tr.end(s)
	if e.chaos {
		f.rep = sup.Report()
		s = tr.begin("obs.export", root)
		err = exportPillars(f.res, f.rep)
		tr.end(s)
		if err != nil {
			return nil, err
		}
	}
	tr.end(root)
	for _, w := range e.webs {
		f.fetches += w.Fetches()
	}
	return f, nil
}

// round is Runner.Round composed from its primitives: Active,
// ParallelOver with StepShard, DeliverMail, EndRound.
func (f *tracedFleet) round(tr *tracer, root int, r *shard.Runner) (bool, error) {
	if r.Done() {
		return false, nil
	}
	rd := tr.begin("shard.round", root)
	defer tr.end(rd)
	s := tr.begin("shard.active", rd)
	active := r.Active()
	tr.end(s)
	if len(active) == 0 {
		r.MarkDrained()
		return false, nil
	}
	f.workers = max(f.workers, min(len(active), parallelism()))
	steps := make([]time.Duration, r.Shards())
	errs := make([]error, r.Shards())
	po := tr.begin("shard.parallel", rd)
	r.ParallelOver(active, func(i int) {
		s := tr.begin("crawler.step", po)
		errs[i] = r.StepShard(i)
		steps[i] = tr.end(s)
	})
	tr.end(po)
	var slowest time.Duration
	for _, i := range active {
		if errs[i] != nil {
			return false, errs[i]
		}
		slowest = max(slowest, steps[i])
	}
	for _, i := range active {
		f.barrierWait += slowest - steps[i]
	}
	before := f.pending(r)
	s = tr.begin("shard.deliver", rd)
	r.DeliverMail()
	tr.end(s)
	f.mail += f.pending(r) - before
	s = tr.begin("shard.end_round", rd)
	cont := r.EndRound()
	tr.end(s)
	return cont, nil
}

// supervisedRound is one supervisor round, then a probe of the barrier
// state: every live shard's checkpoint encoded and decoded, both
// read-only.
func (f *tracedFleet) supervisedRound(tr *tracer, root int, r *shard.Runner, sup *supervisor.Supervisor) (bool, error) {
	s := tr.begin("supervisor.round", root)
	cont, err := sup.Round()
	tr.end(s)
	if err != nil {
		return false, err
	}
	for i := 0; i < r.Shards(); i++ {
		if r.Fenced(i) {
			continue
		}
		s := tr.begin("checkpoint.encode", root)
		data, err := r.BarrierCheckpoint(i)
		tr.end(s)
		if err != nil {
			return false, err
		}
		s = tr.begin("checkpoint.decode", root)
		_, err = crawler.UnmarshalCheckpoint(data)
		tr.end(s)
		if err != nil {
			return false, err
		}
		f.ckptBytes += len(data)
	}
	return cont, nil
}

// fetchedURLs lists the URLs the crawl fetched: status Fetched or
// Filtered in the final crawl state, sorted.
func fetchedURLs(res *shard.Result) []string {
	var urls []string
	for _, pr := range res.PerShard {
		for u, st := range pr.CrawlDB.Snapshot().Status {
			if st == crawldb.Fetched || st == crawldb.Filtered {
				urls = append(urls, u)
			}
		}
	}
	sort.Strings(urls)
	return urls
}

// pageReplay is the per-page filter chain replayed serially.
type pageReplay struct {
	fetch, mime, html, boiler, langid, classify layer
	langRejects                                 int
	// boilerP/boilerR sum per-page word-overlap precision and recall
	// against the gold net text over boilerPages pages.
	boilerP, boilerR float64
	boilerPages      int
	clfQ             classify.Quality
}

// replayPages runs the crawler's per-page calls, in the crawler's order
// and with its filter thresholds, over the fetched pages.
func (e *crawlEnv) replayPages(urls []string) (*pageReplay, error) {
	cfg := e.fleetConfig().Crawl
	web := e.newWeb()
	bc := boiler.Default()
	li := langid.New()
	rp := &pageReplay{}
	for _, u := range urls {
		t0 := time.Now()
		var page *synthweb.Page
		for attempt := 0; attempt <= cfg.MaxRetries && page == nil; attempt++ {
			if p, _, err := web.FetchAttempt(u, attempt); err == nil {
				page = p
			}
		}
		rp.fetch.since(t0)
		if page == nil {
			return nil, fmt.Errorf("replay: %s does not fetch within %d attempts", u, cfg.MaxRetries+1)
		}

		t0 = time.Now()
		textual := mimetype.Detect(u, page.Body).IsTextual()
		rp.mime.since(t0)
		if !textual {
			continue
		}
		body := string(page.Body)

		t0 = time.Now()
		tokens, _ := htmlkit.Repair(htmlkit.Tokenize(body))
		htmlkit.ExtractBlocks(tokens)
		rp.html.since(t0)

		t0 = time.Now()
		netText := bc.Extract(body).NetText
		rp.boiler.since(t0)
		if page.NetText != "" {
			p, r := boiler.WordOverlapPR(netText, page.NetText)
			rp.boilerP += p
			rp.boilerR += r
			rp.boilerPages++
		}
		if len(netText) > cfg.MaxNetTextLen {
			continue
		}

		t0 = time.Now()
		english := li.IsEnglish(netText)
		rp.langid.since(t0)
		if !english {
			rp.langRejects++
			continue
		}
		if len(netText) < cfg.MinNetTextLen {
			continue
		}

		t0 = time.Now()
		relevant := e.clf.ProbRelevant(netText) >= e.clf.Threshold
		rp.classify.since(t0)
		switch {
		case relevant && page.Relevant:
			rp.clfQ.TP++
		case relevant:
			rp.clfQ.FP++
		case page.Relevant:
			rp.clfQ.FN++
		default:
			rp.clfQ.TN++
		}
	}
	return rp, nil
}

// traceCrawl is the traced run of crawl and crawl-chaos.
func traceCrawl(chaos bool) func(runConfig) (*result, error) {
	return func(rc runConfig) (*result, error) {
		res := &result{Correct: true, Metrics: perLayerZero()}

		// Untraced reference crawl: the runtime counters and the baseline
		// for trace overhead and output identity. It runs twice; the first
		// warms the process up, as the traced crawl finds it warm.
		var ref *timedCrawl
		for i := 0; i < 2; i++ {
			var err error
			if ref, err = runTimedCrawl(rc.seed, chaos); err != nil {
				return nil, err
			}
		}
		refOut := summarize(ref.res, ref.rep)
		res.record(ref.env.check(refOut, nil))

		e := newCrawlEnv(rc.seed, chaos)
		tr := newTracer()
		f, err := e.tracedCrawl(tr)
		if err != nil {
			return nil, err
		}
		msg := e.check(summarize(f.res, f.rep), &refOut)
		rp, err := e.replayPages(fetchedURLs(f.res))
		if err != nil {
			return nil, err
		}

		m := res.Metrics
		setRuntime(m, ref.rtBefore, ref.rtAfter)
		probe := tr.busy("checkpoint.encode") + tr.busy("checkpoint.decode")
		m.set("bench.trace_overhead_pct", 100*((tr.busy("fleet")-probe)/ref.wallS-1), "%")
		setFleet(m, tr, f)
		setPageReplay(m, rp)
		if msg == "" {
			msg = declaredOnly(m)
		}
		res.record(msg)
		return res, nil
	}
}

// setFleet reports the fleet-level layers of a traced crawl.
func setFleet(m metricSet, tr *tracer, f *tracedFleet) {
	st := f.res.Stats
	m.set("crawler.cycles", float64(st.Cycles), "count")
	m.set("crawler.fetch_attempts", float64(f.fetches), "count")
	m.set("crawler.retries", float64(st.Retries), "count")
	m.set("crawler.filtered_frac", ratio(float64(st.FilteredMIME+st.FilteredLang+st.FilteredLength), float64(st.Fetched), 0), "ratio")
	known := 0
	for _, pr := range f.res.PerShard {
		known += pr.CrawlDB.Known()
	}
	m.set("crawldb.known", float64(known), "count")
	m.set("shard.rounds", float64(f.res.Rounds), "count")
	m.set("shard.merge_s", tr.busy("shard.merge"), "s")

	if f.rep == nil {
		// The plain fleet: every step is a span of its own.
		stepS := tr.busy("crawler.step")
		m.set("crawler.step.busy_s", stepS, "s")
		m.set("shard.barrier_wait_s", f.barrierWait.Seconds(), "s")
		m.set("shard.parallel_eff", ratio(stepS, float64(f.workers)*tr.busy("shard.parallel"), 0), "ratio")
		m.set("shard.mail", float64(f.mail), "count")
		m.set("shard.deliver_s", tr.busy("shard.deliver"), "s")
		return
	}
	// The supervisor composes the primitives inside its rounds; the step
	// time comes from the crawlers' own profiler (wall lane of
	// crawl.cycle), which crashed attempts roll back.
	if sd := f.res.Profile.Get("crawl.cycle"); sd != nil {
		m.set("crawler.step.busy_s", float64(sd.WallNs)/1e9, "s")
	}
	m.set("supervisor.round_s", tr.busy("supervisor.round"), "s")
	restarts := 0
	for _, n := range f.rep.Restarts {
		restarts += n
	}
	m.set("supervisor.restarts", float64(restarts), "count")
	m.set("checkpoint.bytes", float64(f.ckptBytes), "bytes")
	m.set("checkpoint.encode_s", tr.busy("checkpoint.encode"), "s")
	m.set("checkpoint.decode_s", tr.busy("checkpoint.decode"), "s")
	spans := 0
	for _, t := range f.res.Traces.Traces {
		spans += len(t.Spans)
	}
	m.set("obs.trace.spans", float64(spans), "count")
	m.set("obs.log.records", float64(f.res.Logs.Stats.Emitted), "count")
	var points int64
	for _, sd := range f.res.Series.Series {
		points += sd.Total
	}
	m.set("obs.series.points", float64(points), "count")
	m.set("obs.prof.scopes", float64(len(f.res.Profile.Scopes)), "count")
	m.set("obs.export_s", tr.busy("obs.export"), "s")
}

// setPageReplay reports the per-page layers: cost, quality and each
// system layer's share of the replay. The harness fetch is kept out of
// the shares.
func setPageReplay(m metricSet, rp *pageReplay) {
	m.set("harness.fetch.busy_s", rp.fetch.busyS(), "s")
	m.set("harness.fetch.p99_us", rp.fetch.p(99), "us")
	m.set("mimetype.busy_s", rp.mime.busyS(), "s")
	m.set("htmlkit.busy_s", rp.html.busyS(), "s")
	m.set("boiler.busy_s", rp.boiler.busyS(), "s")
	m.set("boiler.p50_us", rp.boiler.p(50), "us")
	m.set("boiler.p99_us", rp.boiler.p(99), "us")
	m.set("boiler.precision", ratio(rp.boilerP, float64(rp.boilerPages), 1), "ratio")
	m.set("boiler.recall", ratio(rp.boilerR, float64(rp.boilerPages), 1), "ratio")
	m.set("langid.calls", float64(rp.langid.calls()), "count")
	m.set("langid.busy_s", rp.langid.busyS(), "s")
	m.set("langid.p50_us", rp.langid.p(50), "us")
	m.set("langid.p99_us", rp.langid.p(99), "us")
	m.set("langid.reject_frac", ratio(float64(rp.langRejects), float64(rp.langid.calls()), 0), "ratio")
	m.set("classify.busy_s", rp.classify.busyS(), "s")
	m.set("classify.p99_us", rp.classify.p(99), "us")
	m.set("classify.precision", rp.clfQ.Precision(), "ratio")
	m.set("classify.recall", rp.clfQ.Recall(), "ratio")

	// The total is the crawler's own sequence; boiler.Extract runs the
	// htmlkit path inside it, so htmlkit's share is part of boiler's.
	total := rp.mime.busyS() + rp.boiler.busyS() + rp.langid.busyS() + rp.classify.busyS()
	m.set("mimetype.share", ratio(rp.mime.busyS(), total, 0), "ratio")
	m.set("htmlkit.share", ratio(rp.html.busyS(), total, 0), "ratio")
	m.set("boiler.share", ratio(rp.boiler.busyS(), total, 0), "ratio")
	m.set("langid.share", ratio(rp.langid.busyS(), total, 0), "ratio")
	m.set("classify.share", ratio(rp.classify.busyS(), total, 0), "ratio")
}
