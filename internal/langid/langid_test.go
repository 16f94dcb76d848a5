package langid

import (
	"slices"
	"sync"
	"testing"

	"webtextie/internal/rng"
)

var samples = map[string]string{
	"en": `The patients were treated with the new drug and the results showed
a significant reduction in tumor size across all groups that received the
higher dose during the second phase of the clinical trial.`,
	"de": `Die Patienten wurden mit dem neuen Medikament behandelt und die
Ergebnisse zeigten eine deutliche Verringerung der Tumorgröße in allen
Gruppen die während der zweiten Phase der Studie die höhere Dosis erhielten.`,
	"fr": `Les patients ont été traités avec le nouveau médicament et les
résultats ont montré une réduction significative de la taille des tumeurs
dans tous les groupes qui ont reçu la dose la plus élevée pendant la phase.`,
	"es": `Los pacientes fueron tratados con el nuevo medicamento y los
resultados mostraron una reducción significativa del tamaño del tumor en
todos los grupos que recibieron la dosis más alta durante la segunda fase.`,
}

func TestIdentifyKnownLanguages(t *testing.T) {
	id := New()
	for want, text := range samples {
		got, conf := id.Identify(text)
		if got != want {
			t.Errorf("Identify(%s sample) = %q (conf %.2f), want %q", want, got, conf, want)
		}
		if conf <= 0.5 {
			t.Errorf("%s: confidence %.2f too low", want, conf)
		}
	}
}

func TestIsEnglish(t *testing.T) {
	id := New()
	if !id.IsEnglish(samples["en"]) {
		t.Error("English sample rejected")
	}
	if id.IsEnglish(samples["de"]) {
		t.Error("German sample accepted as English")
	}
}

func TestShortInputReturnsUnknown(t *testing.T) {
	id := New()
	if lang, conf := id.Identify("hi"); lang != "" || conf != 0 {
		t.Errorf("short input = %q/%.2f, want empty", lang, conf)
	}
	if lang, _ := id.Identify(""); lang != "" {
		t.Errorf("empty input = %q", lang)
	}
}

func TestNonLetterInputReturnsUnknown(t *testing.T) {
	id := New()
	if lang, _ := id.Identify("12345 67890 !!! ??? ### 12345 67890"); lang != "" {
		t.Errorf("numeric input identified as %q", lang)
	}
}

func TestTrainNewLanguage(t *testing.T) {
	id := New()
	id.Train("xx", "zzq zzq zzq wqx wqx zzq qqz zzq wqx qqz zzq wqx zzq qqz")
	got, _ := id.Identify("zzq wqx qqz zzq zzq wqx zzq qqz wqx zzq zzq wqx")
	if got != "xx" {
		t.Errorf("custom language = %q, want xx", got)
	}
}

func TestLanguagesSorted(t *testing.T) {
	langs := New().Languages()
	if len(langs) < 5 {
		t.Fatalf("only %d built-in languages", len(langs))
	}
	for i := 1; i < len(langs); i++ {
		if langs[i-1] >= langs[i] {
			t.Fatalf("languages not sorted: %v", langs)
		}
	}
}

func TestNormalize(t *testing.T) {
	if got := string(normalize(nil, "Hello, WORLD!  42")); got != "hello world" && got != "hello world " {
		t.Errorf("normalize = %q", got)
	}
}

func TestMixedTextMajorityWins(t *testing.T) {
	id := New()
	mixed := samples["en"] + " " + samples["en"] + " Bonjour le monde."
	if got, _ := id.Identify(mixed); got != "en" {
		t.Errorf("mostly-English mixed text = %q", got)
	}
}

// TestTieBreakLowestCode pins the tie-break: two languages trained on the
// same sample are at the same distance from any text, and the lower code
// must win every time, whatever order the languages were trained in.
func TestTieBreakLowestCode(t *testing.T) {
	const sample = "zzq zzq zzq wqx wqx zzq qqz zzq wqx qqz zzq wqx zzq qqz"
	const text = "zzq wqx qqz zzq zzq wqx zzq qqz wqx zzq zzq wqx"
	check := func(id *Identifier) {
		t.Helper()
		if lang, conf := id.Identify(text); lang != "xx" || conf != 0.5 {
			t.Fatalf("tied Identify = (%q, %v), want (xx, 0.5)", lang, conf)
		}
	}
	id := New()
	id.Train("yy", sample)
	id.Train("xx", sample)
	for i := 0; i < 200; i++ {
		check(id)
	}
	for i := 0; i < 20; i++ {
		fresh := New()
		if i%2 == 0 {
			fresh.Train("xx", sample)
			fresh.Train("yy", sample)
		} else {
			fresh.Train("yy", sample)
			fresh.Train("xx", sample)
		}
		check(fresh)
	}
}

// TestSelectSmallest checks the quickselect against a full sort on random,
// ascending, descending and organ-pipe inputs of every size around the
// profile cut.
func TestSelectSmallest(t *testing.T) {
	r := rng.New(7)
	for n := 0; n < 700; n += 1 + n/16 {
		for shape := 0; shape < 4; shape++ {
			a := make([]uint64, n)
			for i := range a {
				switch shape {
				case 0:
					a[i] = r.Uint64()
				case 1:
					a[i] = uint64(i)
				case 2:
					a[i] = uint64(n - i)
				default:
					a[i] = uint64(min(i, n-i))<<32 | uint64(i)
				}
			}
			want := slices.Clone(a)
			slices.Sort(want)
			for _, k := range []int{0, 1, n / 2, profileSize, n - 1} {
				if k < 0 || k >= n {
					continue
				}
				got := slices.Clone(a)
				selectSmallest(got, k)
				head := slices.Clone(got[:k])
				slices.Sort(head)
				if !slices.Equal(head, want[:k]) {
					t.Fatalf("n=%d shape=%d k=%d: a[:k] is not the k smallest", n, shape, k)
				}
			}
		}
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestIdentifyAllocFree pins the hot-path contract: once the scratch pool
// is warm, scoring a page allocates nothing.
func TestIdentifyAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	id := New()
	_, extracted, _ := equivalenceTexts()
	page := extracted[0]
	for _, text := range extracted {
		if len(text) > len(page) {
			page = text
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = id.IsEnglish(page) }); allocs != 0 {
		t.Fatalf("IsEnglish allocates %v times per page, want 0", allocs)
	}
}

// TestConcurrentIdentifyMatchesSerial shares one Identifier between 8
// goroutines, as crawl shards and dataflow workers do; under -race this
// also proves the pooled scratch is never shared.
func TestConcurrentIdentifyMatchesSerial(t *testing.T) {
	type result struct {
		lang string
		conf float64
	}
	id := New()
	gold, extracted, random := equivalenceTexts()
	texts := append(append(append([]string(nil), gold...), extracted...), random...)
	want := make([]result, len(texts))
	for i, text := range texts {
		want[i].lang, want[i].conf = id.Identify(text)
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < w+len(texts); i++ {
				j := i % len(texts)
				lang, conf := id.Identify(texts[j])
				if lang != want[j].lang || conf != want[j].conf {
					t.Errorf("worker %d: Identify(text %d) = (%q, %v), serial (%q, %v)",
						w, j, lang, conf, want[j].lang, want[j].conf)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkIsEnglish measures the crawler's filter predicate over the
// boiler-extracted net texts of synthweb pages.
func BenchmarkIsEnglish(b *testing.B) {
	id := New()
	_, texts, _ := equivalenceTexts()
	bytes := 0
	for _, text := range texts {
		bytes += len(text)
	}
	b.SetBytes(int64(bytes / len(texts)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = id.IsEnglish(texts[i%len(texts)])
	}
}
