// Package classify implements the focused crawler's relevance classifier
// (§2.1): a multinomial Naive Bayes model over a bag-of-words document
// representation. The paper chose Naive Bayes "due to its robustness with
// respect to class imbalance ... and its ability to update its model
// incrementally"; both properties hold here (log-space class priors can be
// overridden; Learn can be called after training).
//
// The classifier is trained exactly as in the paper: positive examples are
// Medline-style abstracts, negatives are random English web documents
// (common-crawl substitute). The paper notes this introduces a bias because
// "a typical Medline abstract is quite different from a typical web page"
// (§2) — the same bias emerges here and is visible in the gap between
// cross-validation and crawl-sample quality (see EXPERIMENTS.md).
package classify

import (
	"math"
	"sort"
	"strings"
	"sync"
)

// Class is a binary relevance label.
type Class int

const (
	// Irrelevant is the negative class.
	Irrelevant Class = iota
	// Relevant is the positive class.
	Relevant
)

// String names the class.
func (c Class) String() string {
	if c == Relevant {
		return "relevant"
	}
	return "irrelevant"
}

// Tokenize converts text to the bag-of-words features: lower-cased
// alphanumeric runs, with pure numbers and single characters dropped.
func Tokenize(text string) []string {
	var out []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() >= 2 {
			w := cur.String()
			digitsOnly := true
			for i := 0; i < len(w); i++ {
				if w[i] < '0' || w[i] > '9' {
					digitsOnly = false
					break
				}
			}
			if !digitsOnly {
				out = append(out, w)
			}
		}
		cur.Reset()
	}
	for _, r := range text {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			cur.WriteRune(r)
		case r >= 'A' && r <= 'Z':
			cur.WriteRune(r + 32)
		default:
			flush()
		}
	}
	flush()
	return out
}

// NaiveBayes is a multinomial Naive Bayes text classifier with Laplace
// smoothing. The zero value is an untrained classifier; use New.
type NaiveBayes struct {
	wordCounts [2]map[string]int
	totalWords [2]int
	docs       [2]int
	vocab      map[string]struct{}

	// Threshold is the posterior probability of Relevant required to
	// classify as relevant. 0.5 is the Bayes decision; the paper's model
	// is "geared towards high precision" (§4.1), corresponding to a higher
	// threshold — the precision/yield trade-off discussed in §5.
	Threshold float64
}

// New returns an empty classifier with the default 0.5 threshold.
func New() *NaiveBayes {
	return &NaiveBayes{
		wordCounts: [2]map[string]int{{}, {}},
		vocab:      map[string]struct{}{},
		Threshold:  0.5,
	}
}

// Learn incrementally updates the model with one labelled document.
func (nb *NaiveBayes) Learn(text string, class Class) {
	nb.LearnTokens(Tokenize(text), class)
}

// LearnTokens is Learn for pre-tokenized input.
func (nb *NaiveBayes) LearnTokens(tokens []string, class Class) {
	nb.docs[class]++
	for _, w := range tokens {
		nb.wordCounts[class][w]++
		nb.totalWords[class]++
		nb.vocab[w] = struct{}{}
	}
}

// Trained reports whether both classes have at least one example.
func (nb *NaiveBayes) Trained() bool { return nb.docs[0] > 0 && nb.docs[1] > 0 }

// Clone returns an independent deep copy of the model (for experiments
// that update one instance incrementally while keeping the original).
func (nb *NaiveBayes) Clone() *NaiveBayes {
	out := New()
	out.Threshold = nb.Threshold
	out.totalWords = nb.totalWords
	out.docs = nb.docs
	for c := 0; c < 2; c++ {
		for w, n := range nb.wordCounts[c] {
			out.wordCounts[c][w] = n
		}
	}
	for w := range nb.vocab {
		out.vocab[w] = struct{}{}
	}
	return out
}

// logPriors returns each class's log prior and the log denominator of its
// Laplace-smoothed word likelihoods.
func (nb *NaiveBayes) logPriors() (prior, denom [2]float64) {
	totalDocs := nb.docs[0] + nb.docs[1]
	v := float64(len(nb.vocab))
	for c := 0; c < 2; c++ {
		prior[c] = math.Log(float64(nb.docs[c]+1) / float64(totalDocs+2))
		denom[c] = math.Log(float64(nb.totalWords[c]) + v)
	}
	return prior, denom
}

// logJoint returns the unnormalized log joint probability of each class.
func (nb *NaiveBayes) logJoint(tokens []string) (l [2]float64) {
	l, denom := nb.logPriors()
	for c := 0; c < 2; c++ {
		for _, w := range tokens {
			l[c] += math.Log(float64(nb.wordCounts[c][w])+1) - denom[c]
		}
	}
	return l
}

// tokenBuf is the pooled buffer ProbRelevant lower-cases one token into.
type tokenBuf struct{ b []byte }

var tokenPool = sync.Pool{New: func() any { return new(tokenBuf) }}

// ProbRelevant returns P(Relevant | text) in [0, 1]. It equals
// ProbRelevantTokens(Tokenize(text)) bit for bit, but streams the tokens
// through a pooled buffer instead of building a string per token.
//
//lintx:hotpath relevance classifier, run once per page that passes the crawl filters (§2.1).
func (nb *NaiveBayes) ProbRelevant(text string) float64 {
	if !nb.Trained() {
		return 0.5
	}
	tb := tokenPool.Get().(*tokenBuf)
	l, n := nb.streamLogJoint(tb, text)
	tokenPool.Put(tb)
	return calibrate(l, n)
}

// streamLogJoint is logJoint(Tokenize(text)) without the token slice; it
// also returns the token count. Tokenize's separators are every byte but
// ASCII letters and digits — each byte of a multi-byte rune included — so
// scanning bytes finds the same tokens as decoding runes. Both class sums
// accumulate in token order, as logJoint's do, so the floats are identical.
func (nb *NaiveBayes) streamLogJoint(tb *tokenBuf, text string) (l [2]float64, n int) {
	l, denom := nb.logPriors()
	tok := tb.b[:0]
	digitsOnly := true
	for i := 0; i <= len(text); i++ {
		c := byte(' ') // a separator past the end flushes the last token
		if i < len(text) {
			c = text[i]
		}
		switch {
		case c >= 'a' && c <= 'z':
			tok = append(tok, c)
			digitsOnly = false
		case c >= 'A' && c <= 'Z':
			tok = append(tok, c+32)
			digitsOnly = false
		case c >= '0' && c <= '9':
			tok = append(tok, c)
		default:
			if len(tok) >= 2 && !digitsOnly {
				for k := range l {
					l[k] += math.Log(float64(nb.wordCounts[k][string(tok)])+1) - denom[k]
				}
				n++
			}
			tok = tok[:0]
			digitsOnly = true
		}
	}
	tb.b = tok
	return l, n
}

// ProbRelevantTokens is ProbRelevant for pre-tokenized input.
//
// The returned probability is length-calibrated: the class log-odds are
// normalized by the token count before the logistic transform. Raw
// multinomial NB posteriors saturate at 0/1 for documents of hundreds of
// words, which would make the decision threshold useless as a
// precision/yield knob — and tuning that knob is exactly the §5 trade-off
// ("one could tune the classifier towards more recall during crawling").
// The 0.5 decision boundary is unaffected (sigmoid(x) >= 0.5 iff x >= 0).
func (nb *NaiveBayes) ProbRelevantTokens(tokens []string) float64 {
	if !nb.Trained() {
		return 0.5
	}
	return calibrate(nb.logJoint(tokens), len(tokens))
}

// calibrate turns the class log joints of a tokens-long document into the
// length-calibrated P(Relevant) (see ProbRelevantTokens).
func calibrate(l [2]float64, tokens int) float64 {
	n := float64(tokens)
	if n < 1 {
		n = 1
	}
	perToken := (l[Relevant] - l[Irrelevant]) / n
	return 1 / (1 + math.Exp(-8*perToken))
}

// Classify applies the decision threshold.
func (nb *NaiveBayes) Classify(text string) Class {
	if nb.ProbRelevant(text) >= nb.Threshold {
		return Relevant
	}
	return Irrelevant
}

// ClassifyTokens is Classify for pre-tokenized input.
func (nb *NaiveBayes) ClassifyTokens(tokens []string) Class {
	if nb.ProbRelevantTokens(tokens) >= nb.Threshold {
		return Relevant
	}
	return Irrelevant
}

// TopWords returns the n strongest indicator words for a class by
// log-likelihood ratio — useful for model inspection in reports.
func (nb *NaiveBayes) TopWords(class Class, n int) []string {
	other := 1 - class
	type scored struct {
		w string
		s float64
	}
	v := float64(len(nb.vocab))
	var all []scored
	for w := range nb.vocab {
		pc := (float64(nb.wordCounts[class][w]) + 1) / (float64(nb.totalWords[class]) + v)
		po := (float64(nb.wordCounts[other][w]) + 1) / (float64(nb.totalWords[other]) + v)
		if nb.wordCounts[class][w] >= 3 {
			all = append(all, scored{w, math.Log(pc / po)})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].s != all[j].s {
			return all[i].s > all[j].s
		}
		return all[i].w < all[j].w
	})
	if len(all) > n {
		all = all[:n]
	}
	out := make([]string, len(all))
	for i, s := range all {
		out[i] = s.w
	}
	return out
}

// Example is one labelled training document.
type Example struct {
	Text  string
	Class Class
}

// Train builds a classifier from a labelled set.
func Train(examples []Example, threshold float64) *NaiveBayes {
	nb := New()
	nb.Threshold = threshold
	for _, ex := range examples {
		nb.Learn(ex.Text, ex.Class)
	}
	return nb
}

// Quality holds binary classification quality measures with respect to the
// Relevant class.
type Quality struct {
	TP, FP, TN, FN int
}

// Precision returns TP / (TP + FP); 1 if no positives were predicted.
func (q Quality) Precision() float64 {
	if q.TP+q.FP == 0 {
		return 1
	}
	return float64(q.TP) / float64(q.TP+q.FP)
}

// Recall returns TP / (TP + FN); 1 if no positives exist.
func (q Quality) Recall() float64 {
	if q.TP+q.FN == 0 {
		return 1
	}
	return float64(q.TP) / float64(q.TP+q.FN)
}

// F1 returns the harmonic mean of precision and recall.
func (q Quality) F1() float64 {
	p, r := q.Precision(), q.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// Accuracy returns the fraction of correct decisions.
func (q Quality) Accuracy() float64 {
	total := q.TP + q.FP + q.TN + q.FN
	if total == 0 {
		return 1
	}
	return float64(q.TP+q.TN) / float64(total)
}

// Add accumulates another quality count.
func (q *Quality) Add(o Quality) {
	q.TP += o.TP
	q.FP += o.FP
	q.TN += o.TN
	q.FN += o.FN
}

// Evaluate scores a trained classifier on a labelled set.
func Evaluate(nb *NaiveBayes, examples []Example) Quality {
	var q Quality
	for _, ex := range examples {
		got := nb.Classify(ex.Text)
		switch {
		case got == Relevant && ex.Class == Relevant:
			q.TP++
		case got == Relevant && ex.Class == Irrelevant:
			q.FP++
		case got == Irrelevant && ex.Class == Irrelevant:
			q.TN++
		default:
			q.FN++
		}
	}
	return q
}

// CrossValidate performs k-fold cross-validation (the paper uses 10-fold,
// §4.1) and returns the pooled quality over all folds. Fold assignment is
// round-robin, so callers should pre-shuffle if example order is biased.
func CrossValidate(examples []Example, k int, threshold float64) Quality {
	if k < 2 {
		k = 2
	}
	var total Quality
	for fold := 0; fold < k; fold++ {
		var train, test []Example
		for i, ex := range examples {
			if i%k == fold {
				test = append(test, ex)
			} else {
				train = append(train, ex)
			}
		}
		nb := Train(train, threshold)
		total.Add(Evaluate(nb, test))
	}
	return total
}
