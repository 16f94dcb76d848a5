// Package langid implements character n-gram language identification, the
// "n-gram based language filter" of the paper's crawler (§2.1): pages not
// written in English are discarded because the downstream IE tools are
// language-sensitive. The method is Cavnar-Trenkle rank-order profiles over
// character trigrams, trained here on built-in seed text per language.
//
// Trigrams are byte trigrams of the normalized text, packed big-endian into
// a uint32 so that integer order equals the byte order of the 3-byte
// strings. A document is normalized and counted once, in pooled scratch,
// and scored against every language with one lookup per trigram in a
// merged index, so identification allocates nothing per call.
package langid

import (
	"math/bits"
	"slices"
	"sort"
	"sync"
	"unicode/utf8"
)

// profileSize is the number of top n-grams kept per language profile.
const profileSize = 300

// absent marks a trigram missing from a language's profile in the merged
// rank index.
const absent = ^uint16(0)

// Identifier scores text against a set of language profiles. It is safe
// for concurrent Identify/IsEnglish calls; Train must not run concurrently
// with them.
type Identifier struct {
	profiles map[string][]uint32 // lang -> packed trigrams in rank order

	// The merged index, rebuilt by Train: langs holds the language codes
	// sorted, index maps a packed trigram to the offset of its row in
	// ranks, and ranks[row+l] is the trigram's rank in langs[l]'s profile
	// (absent if it is not in it).
	langs []string
	index map[uint32]int32
	ranks []uint16
}

// builtin seed text per language; a few hundred characters of common
// function-word-rich prose is enough for trigram profiles to separate
// European languages reliably.
var builtinSeeds = map[string]string{
	"en": `the of and to in is was for that it with as his on be at by this had
not are but from or have an they which one you were all her she there would
their we him been has when who will no more if out so up said what its about
than into them can only other time new some could these two may first then do`,
	"de": `der die und in den von zu das mit sich des auf für ist im dem nicht
ein eine als auch es an werden aus er hat dass sie nach wird bei einer um am
sind noch wie einem über einen so zum war haben nur oder aber vor zur bis mehr
durch man sein wurde sei`,
	"fr": `de la le et les des en un du une que est pour qui dans a par plus
pas au sur ne se ce il sont la mais comme ou si leur y dont aux avec cette ces
ses être fait elle deux même nous tout on ans entre sans autres après`,
	"es": `de la que el en y a los se del las un por con no una su para es al
lo como más pero sus le ya o este sí porque esta entre cuando muy sin sobre
también me hasta hay donde quien desde todo nos durante todos uno les`,
	"nl": `de het een en van in is dat op te zijn met voor niet aan er om ook
als dan maar bij of uit nog worden door naar heeft hij ze wordt tot je mijn
deze over zo kan geen hem dit onder tegen al waren veel meer doen moet`,
}

// New builds an identifier with the built-in language profiles.
func New() *Identifier {
	id := &Identifier{profiles: map[string][]uint32{}}
	for lang, seed := range builtinSeeds {
		id.Train(lang, seed)
	}
	return id
}

// Train adds or replaces the profile for a language from sample text.
func (id *Identifier) Train(lang, sample string) {
	s := scratchPool.Get().(*scratch)
	top, _ := s.rank(sample)
	prof := make([]uint32, len(top))
	for i, k := range top {
		prof[i] = uint32(k)
	}
	scratchPool.Put(s)
	id.profiles[lang] = prof
	id.reindex()
}

// reindex rebuilds the merged trigram -> per-language rank index.
func (id *Identifier) reindex() {
	langs := make([]string, 0, len(id.profiles))
	for l := range id.profiles {
		langs = append(langs, l)
	}
	sort.Strings(langs)
	index := map[uint32]int32{}
	var ranks []uint16
	for li, l := range langs {
		for r, g := range id.profiles[l] {
			row, ok := index[g]
			if !ok {
				row = int32(len(ranks))
				index[g] = row
				for range langs {
					ranks = append(ranks, absent)
				}
			}
			ranks[int(row)+li] = uint16(r)
		}
	}
	id.langs, id.index, id.ranks = langs, index, ranks
}

// Languages returns the known language codes, sorted.
func (id *Identifier) Languages() []string {
	return slices.Clone(id.langs)
}

// scratch is the per-call working memory of one identification. It lives
// in a sync.Pool so that concurrent callers sharing one Identifier (crawl
// shards, dataflow workers) never share buffers.
type scratch struct {
	norm  []byte   // normalized text
	slots []uint64 // open-addressed trigram counts: key<<32 | count, 0 = empty
	keys  []uint64 // distinct trigrams as (count desc, key asc) sort keys
	dist  []int    // per-language out-of-place distance
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// normalize appends text to dst lower-cased, with every run of non-letters
// collapsed to a single space, so that profiles capture letter sequences,
// not punctuation. Runes above ASCII count as letters; an invalid byte
// becomes U+FFFD, as ranging over the string decodes it.
func normalize(dst []byte, text string) []byte {
	prevSpace := true
	for i := 0; i < len(text); {
		c := text[i]
		if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRuneInString(text[i:])
			dst = utf8.AppendRune(dst, r)
			prevSpace = false
			i += size
			continue
		}
		i++
		switch {
		case c >= 'A' && c <= 'Z':
			dst = append(dst, c+32)
			prevSpace = false
		case c >= 'a' && c <= 'z':
			dst = append(dst, c)
			prevSpace = false
		default:
			if !prevSpace {
				dst = append(dst, ' ')
				prevSpace = true
			}
		}
	}
	return dst
}

// rank normalizes text and counts its byte trigrams. It returns the top
// profileSize distinct trigrams in rank order (count descending, trigram
// ascending), each as a sort key whose low 32 bits are the packed trigram,
// and the number of distinct trigrams. The returned slice aliases s and is
// valid until s is reused.
func (s *scratch) rank(text string) (top []uint64, distinct int) {
	s.norm = normalize(s.norm[:0], text)
	norm := s.norm
	keys := s.keys[:0]
	if len(norm) >= 3 {
		// At most len(norm)-2 distinct trigrams: a table of twice that
		// (rounded up to a power of two) keeps the load factor <= 1/2.
		shift := bits.LeadingZeros32(uint32(2*(len(norm)-2) - 1)) // 32 - log2(size)
		size := 1 << (32 - shift)
		if len(s.slots) < size {
			s.slots = make([]uint64, size)
		}
		tab := s.slots[:size]
		mask := uint32(size - 1)
		g := uint32(norm[0])<<8 | uint32(norm[1])
		for _, c := range norm[2:] {
			g = (g<<8 | uint32(c)) & 0xFFFFFF
			// Normalized text has no NUL byte, so no trigram packs to 0.
			h := (g * 0x9E3779B1) >> shift
			for {
				e := tab[h]
				if e == 0 {
					tab[h] = uint64(g)<<32 | 1
					keys = append(keys, uint64(h))
					break
				}
				if uint32(e>>32) == g {
					tab[h] = e + 1
					break
				}
				h = (h + 1) & mask
			}
		}
		// Turn each occupied slot into its sort key and empty the slot
		// for the next call.
		for i, h := range keys {
			e := tab[h]
			tab[h] = 0
			keys[i] = uint64(^uint32(e))<<32 | e>>32
		}
	}
	s.keys = keys
	distinct = len(keys)
	if distinct > profileSize {
		selectSmallest(keys, profileSize)
		keys = keys[:profileSize]
	}
	slices.Sort(keys)
	return keys, distinct
}

// selectSmallest reorders a (distinct values) so that a[:k] holds its k
// smallest elements, in no particular order: quickselect with a
// median-of-three pivot. The order of a follows the page text, so a
// hostile page could line up bad pivots; past 2·log2(n) rounds the rest
// is sorted instead, which bounds the cost at O(n log n).
func selectSmallest(a []uint64, k int) {
	lo, hi := 0, len(a)-1
	for rounds := 2 * bits.Len(uint(len(a))); lo < hi; rounds-- {
		if rounds == 0 {
			slices.Sort(a[lo : hi+1])
			return
		}
		mid := lo + (hi-lo)/2
		if a[mid] < a[lo] {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if a[hi] < a[lo] {
			a[hi], a[lo] = a[lo], a[hi]
		}
		if a[hi] < a[mid] {
			a[hi], a[mid] = a[mid], a[hi]
		}
		// a[lo] <= a[mid] <= a[hi]: partition a[lo:hi] around a[mid],
		// parked at hi-1 (a[hi] is already on the right side).
		a[mid], a[hi-1] = a[hi-1], a[mid]
		pivot := a[hi-1]
		p := lo
		for i := lo; i < hi-1; i++ {
			if a[i] < pivot {
				a[i], a[p] = a[p], a[i]
				p++
			}
		}
		a[p], a[hi-1] = a[hi-1], a[p]
		switch {
		case p == k:
			return
		case p < k:
			lo = p + 1
		default:
			hi = p - 1
		}
	}
}

// Identify returns the best-matching language and a confidence in (0, 1].
// Short or empty inputs return ("", 0): the paper's crawler separately
// drops too-short pages, so no guess is better than a wild one. On an
// exact distance tie the lowest language code wins, with confidence 0.5.
//
//lintx:hotpath language filter, run once per fetched page on the crawl path (§2.1).
func (id *Identifier) Identify(text string) (lang string, confidence float64) {
	s := scratchPool.Get().(*scratch)
	lang, confidence = id.identify(s, text)
	scratchPool.Put(s)
	return lang, confidence
}

func (id *Identifier) identify(s *scratch, text string) (string, float64) {
	doc, distinct := s.rank(text)
	if distinct < 10 {
		return "", 0
	}
	nl := len(id.langs)
	if cap(s.dist) < nl {
		s.dist = make([]int, nl)
	}
	dist := s.dist[:nl]
	clear(dist)
	miss := 0
	for r, k := range doc {
		row, ok := id.index[uint32(k)]
		if !ok {
			miss++
			continue
		}
		for l, pr := range id.ranks[row : int(row)+nl] {
			switch {
			case pr == absent:
				dist[l] += profileSize
			case int(pr) > r:
				dist[l] += int(pr) - r
			default:
				dist[l] += r - int(pr)
			}
		}
	}
	best := ""
	bestD, secondD := int(^uint(0)>>1), int(^uint(0)>>1)
	for l, d := range dist {
		d += miss * profileSize
		if d < bestD {
			secondD = bestD
			best, bestD = id.langs[l], d
		} else if d < secondD {
			secondD = d
		}
	}
	if best == "" {
		return "", 0
	}
	// Confidence: relative margin between the best and second-best distance.
	if secondD == 0 {
		return best, 0
	}
	margin := float64(secondD-bestD) / float64(secondD)
	return best, 0.5 + margin/2
}

// IsEnglish is the crawler's filter predicate.
func (id *Identifier) IsEnglish(text string) bool {
	lang, conf := id.Identify(text)
	return lang == "en" && conf > 0.5
}
