package langid

// The reference implementation below is the map-and-sort Cavnar-Trenkle
// scorer this package used before trigrams were packed. It is the oracle
// the packed scorer must match: the same IsEnglish verdict and the same
// confidence on every input, and the same language wherever the best
// distance is not tied (the reference breaks ties in map order).

import (
	"sort"
	"strings"
	"sync"
	"testing"
	"unicode/utf8"

	"webtextie/internal/boiler"
	"webtextie/internal/rng"
	"webtextie/internal/synthweb"
	"webtextie/internal/textgen"
)

type refIdentifier struct {
	profiles map[string]map[string]int
}

func newRef() *refIdentifier {
	id := &refIdentifier{profiles: map[string]map[string]int{}}
	for lang, seed := range builtinSeeds {
		id.profiles[lang] = refRankProfile(seed)
	}
	return id
}

func refRankProfile(text string) map[string]int {
	counts := refNgramCounts(text)
	type kv struct {
		g string
		n int
	}
	all := make([]kv, 0, len(counts))
	for g, n := range counts {
		all = append(all, kv{g, n})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n > all[j].n
		}
		return all[i].g < all[j].g
	})
	if len(all) > profileSize {
		all = all[:profileSize]
	}
	ranks := make(map[string]int, len(all))
	for i, e := range all {
		ranks[e.g] = i
	}
	return ranks
}

func refNgramCounts(text string) map[string]int {
	norm := refNormalize(text)
	counts := map[string]int{}
	for i := 0; i+3 <= len(norm); i++ {
		counts[norm[i:i+3]]++
	}
	return counts
}

func refNormalize(text string) string {
	var b strings.Builder
	b.Grow(len(text))
	prevSpace := true
	for _, r := range text {
		switch {
		case r >= 'A' && r <= 'Z':
			b.WriteRune(r + 32)
			prevSpace = false
		case r >= 'a' && r <= 'z' || r > 127:
			b.WriteRune(r)
			prevSpace = false
		default:
			if !prevSpace {
				b.WriteByte(' ')
				prevSpace = true
			}
		}
	}
	return b.String()
}

// identify is the reference Identify, also returning the best and
// second-best distances so callers can tell a tie.
func (id *refIdentifier) identify(text string) (lang string, confidence float64, bestD, secondD int) {
	counts := refNgramCounts(text)
	if len(counts) < 10 {
		return "", 0, 0, 0
	}
	doc := refRankProfile(text)
	best := ""
	bestD, secondD = int(^uint(0)>>1), int(^uint(0)>>1)
	for l, prof := range id.profiles {
		d := refOutOfPlace(doc, prof)
		if d < bestD {
			secondD = bestD
			best, bestD = l, d
		} else if d < secondD {
			secondD = d
		}
	}
	if best == "" {
		return "", 0, bestD, secondD
	}
	if secondD == 0 {
		return best, 0, bestD, secondD
	}
	margin := float64(secondD-bestD) / float64(secondD)
	return best, 0.5 + margin/2, bestD, secondD
}

func refOutOfPlace(doc, prof map[string]int) int {
	d := 0
	for g, r := range doc {
		pr, ok := prof[g]
		if !ok {
			d += profileSize
			continue
		}
		if pr > r {
			d += pr - r
		} else {
			d += r - pr
		}
	}
	return d
}

// checkAgainstRef compares the packed scorer with the reference on one text.
func checkAgainstRef(t *testing.T, id *Identifier, ref *refIdentifier, text string) {
	t.Helper()
	lang, conf := id.Identify(text)
	wantLang, wantConf, bestD, secondD := ref.identify(text)
	if conf != wantConf {
		t.Fatalf("Identify(%q) confidence = %v, reference %v", text, conf, wantConf)
	}
	if bestD != secondD && lang != wantLang {
		t.Fatalf("Identify(%q) = %q, reference %q (distance %d, untied)", text, lang, wantLang, bestD)
	}
	if got, want := id.IsEnglish(text), wantLang == "en" && wantConf > 0.5; got != want {
		t.Fatalf("IsEnglish(%q) = %v, reference %v", text, got, want)
	}
	if got := string(normalize(nil, text)); got != refNormalize(text) {
		t.Fatalf("normalize(%q) = %q, reference %q", text, got, refNormalize(text))
	}
}

var (
	corpusOnce sync.Once
	corpus     struct{ gold, extracted, random []string }
)

// equivalenceTexts returns the oracle inputs: the gold net texts and the
// boiler-extracted net texts of the first three pages of 220 synthweb
// hosts (English, foreign, too-short, binary and corrupted pages), and
// seeded random strings mixing ASCII, multi-byte runes and invalid UTF-8.
func equivalenceTexts() (gold, extracted, random []string) {
	corpusOnce.Do(func() {
		lex := textgen.NewLexicon(rng.New(31), textgen.DefaultLexiconSizes(), 0.75)
		gen := textgen.NewGenerator(32, lex, textgen.DefaultProfiles())
		cfg := synthweb.DefaultConfig()
		cfg.Seed = 31
		web := synthweb.New(cfg, gen)
		bc := boiler.Default()
		for _, h := range web.Hosts[:220] {
			for i := 0; i < 3 && i < h.Pages; i++ {
				p, err := web.PageContent(synthweb.PageURL(h.Name, i))
				if err != nil {
					continue
				}
				corpus.gold = append(corpus.gold, p.NetText)
				corpus.extracted = append(corpus.extracted, bc.Extract(string(p.Body)).NetText)
			}
		}
		corpus.random = randomTexts(2000)
	})
	return corpus.gold, corpus.extracted, corpus.random
}

// randomTexts draws n seeded strings of up to 120 pieces: letters of both
// cases, digits, punctuation, accented and CJK runes, and invalid bytes
// (lone continuation, truncated sequences, encoded surrogates, NUL).
func randomTexts(n int) []string {
	pieces := []string{
		"a", "e", "t", "h", "n", "s", "r", "d", "x", "q", "E", "T", "Z",
		"the ", "and ", "der ", "de la ", "een ", "0", "7", " ", " ", "  ",
		".", ",", "-", "!", "\n", "\t", "é", "ü", "ß", "ñ", "É", "日本", "ж",
		" ", " ", "\xff", "\xc3", "\x80", "\xe2\x82", "\xed\xa0\x80",
		"\xf4\x90\x80\x80", "\x00", "\x7f",
	}
	r := rng.New(33)
	out := make([]string, n)
	for i := range out {
		var b strings.Builder
		for k := r.Intn(121); k > 0; k-- {
			b.WriteString(pieces[r.Intn(len(pieces))])
		}
		out[i] = b.String()
	}
	return out
}

func TestIdentifyMatchesReference(t *testing.T) {
	id, ref := New(), newRef()
	gold, extracted, random := equivalenceTexts()
	if len(gold) < 600 {
		t.Fatalf("only %d synthweb pages", len(gold))
	}
	english, foreign, invalid := 0, 0, 0
	for _, set := range [][]string{gold, extracted, random, sampleTexts()} {
		for _, text := range set {
			checkAgainstRef(t, id, ref, text)
			if id.IsEnglish(text) {
				english++
			} else {
				foreign++
			}
			if !utf8.ValidString(text) {
				invalid++
			}
		}
	}
	// Guard against a vacuous oracle: both verdicts and invalid UTF-8 occur.
	if english == 0 || foreign == 0 || invalid == 0 {
		t.Fatalf("%d English, %d other, %d invalid UTF-8 texts: the corpus is too narrow", english, foreign, invalid)
	}
}

// sampleTexts returns the known-language test samples in a fixed order.
func sampleTexts() []string {
	langs := make([]string, 0, len(samples))
	for l := range samples {
		langs = append(langs, l)
	}
	sort.Strings(langs)
	out := make([]string, len(langs))
	for i, l := range langs {
		out[i] = samples[l]
	}
	return out
}

func FuzzIdentify(f *testing.F) {
	for _, s := range sampleTexts() {
		f.Add(s)
	}
	gold, extracted, random := equivalenceTexts()
	for i := 0; i < 20; i++ {
		f.Add(gold[i])
		f.Add(extracted[i])
		f.Add(random[i])
	}
	f.Add("")
	f.Add("zzq wqx qqz zzq zzq wqx zzq qqz wqx zzq zzq wqx")
	f.Add("\xff\xfe\xfd abc \xed\xa0\x80 ÉÉÉ 日本語のテキスト the and of")
	id, ref := New(), newRef()
	f.Fuzz(func(t *testing.T, text string) {
		checkAgainstRef(t, id, ref, text)
	})
}
