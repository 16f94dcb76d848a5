package classify

// refProbRelevant is ProbRelevant as it was before tokens were streamed:
// Tokenize, then one log-joint sum per class over the token slice. The
// streaming scorer must return the same float64, bit for bit.

import (
	"math"
	"strings"
	"sync"
	"testing"

	"webtextie/internal/boiler"
	"webtextie/internal/rng"
	"webtextie/internal/synthweb"
	"webtextie/internal/textgen"
)

func refProbRelevant(nb *NaiveBayes, text string) float64 {
	tokens := Tokenize(text)
	if !nb.Trained() {
		return 0.5
	}
	totalDocs := nb.docs[0] + nb.docs[1]
	v := float64(len(nb.vocab))
	var l [2]float64
	for c := 0; c < 2; c++ {
		l[c] = math.Log(float64(nb.docs[c]+1) / float64(totalDocs+2))
		denom := math.Log(float64(nb.totalWords[c]) + v)
		for _, w := range tokens {
			l[c] += math.Log(float64(nb.wordCounts[c][w])+1) - denom
		}
	}
	n := float64(len(tokens))
	if n < 1 {
		n = 1
	}
	perToken := (l[1] - l[0]) / n
	return 1 / (1 + math.Exp(-8*perToken))
}

func checkAgainstRef(t *testing.T, nb *NaiveBayes, text string) {
	t.Helper()
	got, want := nb.ProbRelevant(text), refProbRelevant(nb, text)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("ProbRelevant(%q) = %v, reference %v", text, got, want)
	}
	if got := nb.ProbRelevantTokens(Tokenize(text)); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("ProbRelevantTokens(Tokenize(%q)) = %v, reference %v", text, got, want)
	}
}

var (
	corpusOnce sync.Once
	corpus     struct{ gold, extracted, random []string }
	modelOnce  sync.Once
	model      *NaiveBayes
)

// equivalenceTexts returns the oracle inputs: the gold net texts and the
// boiler-extracted net texts of the first three pages of 220 synthweb
// hosts, and seeded random strings mixing vocabulary words of both cases,
// digits, multi-byte runes and invalid UTF-8.
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

func randomTexts(n int) []string {
	pieces := []string{
		"gene", "Patient", "TUMOR", "the", "brca1", "BRCA1", "shoes", "sale",
		"a", "x", "Z", "0", "42", "7b", " ", " ", "-", ".", ",", "\n", "é",
		"ß", "日本", "É", "\xff", "\xc3", "\xed\xa0\x80", "\x00",
	}
	r := rng.New(34)
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

// trainedModel is the Medline-vs-web classifier the oracle tests score with.
func trainedModel(tb testing.TB) *NaiveBayes {
	modelOnce.Do(func() { model = Train(syntheticExamples(tb, 400), 0.5) })
	return model
}

func TestProbRelevantMatchesReference(t *testing.T) {
	nb := trainedModel(t)
	gold, extracted, random := equivalenceTexts()
	if len(gold) < 600 {
		t.Fatalf("only %d synthweb pages", len(gold))
	}
	relevant := 0
	for _, set := range [][]string{gold, extracted, random} {
		for _, text := range set {
			checkAgainstRef(t, nb, text)
			if nb.ProbRelevant(text) >= 0.5 {
				relevant++
			}
		}
	}
	if relevant == 0 {
		t.Fatal("no text classified relevant: the corpus does not exercise the model")
	}
	checkAgainstRef(t, New(), "untrained model")
}

// TestProbRelevantMatchesReferenceWhileLearning follows the crawler's
// self-training: every scored page is learned under its predicted label,
// so the counts and vocabulary the scorer reads change between calls.
func TestProbRelevantMatchesReferenceWhileLearning(t *testing.T) {
	nb := trainedModel(t).Clone()
	_, extracted, random := equivalenceTexts()
	for i, text := range extracted {
		checkAgainstRef(t, nb, text)
		class := Irrelevant
		if nb.ProbRelevant(text) >= nb.Threshold {
			class = Relevant
		}
		nb.Learn(text, class)
		checkAgainstRef(t, nb, text)
		checkAgainstRef(t, nb, random[i%len(random)])
	}
}

func FuzzProbRelevant(f *testing.F) {
	gold, extracted, random := equivalenceTexts()
	for i := 0; i < 20; i++ {
		f.Add(gold[i])
		f.Add(extracted[i])
		f.Add(random[i])
	}
	f.Add("")
	f.Add("The BRCA1 gene, treated-with 42 mg/kg doses!")
	f.Add("\xff\xfe gene\xc3TUMOR 日本 a1 11 zz")
	nb := trainedModel(f)
	f.Fuzz(func(t *testing.T, text string) {
		checkAgainstRef(t, nb, text)
	})
}
