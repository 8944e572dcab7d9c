package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"
)

// The seeded input generator shared by all workloads. Every page and
// program the server sees comes from here, and every page is a pure
// function of (seed, page id, revision), so the oracle can rebuild any
// delivered version after the run. Each page carries a revision marker
// (<p class="rev">rN</p>) that every program extracts, so each output
// names the page version it came from.

// mix is the splitmix64 finalizer, used to derive row content from
// (seed, page, row, row version) without keeping per-version state.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func rng(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), mix(stream)))
}

var (
	adjectives = []string{"Vintage", "Antique", "Rare", "Mint", "Used", "Boxed", "Signed", "Classic"}
	nouns      = []string{"Camera", "Clock", "Bicycle", "Guitar", "Radio", "Watch", "Lamp", "Typewriter", "Globe", "Atlas"}
	currencies = []string{"$", "Euro", "£"}
)

// catalogue is one monitored catalogue page: sections × rows item rows,
// each row rewritten independently by churn.
type catalogue struct {
	seed     int64
	id       int
	sections int
	rows     int // per section
	rev      int
	ver      []uint32 // per-row rewrite count
}

func newCatalogue(seed int64, id, sections, rows int) *catalogue {
	return &catalogue{seed: seed, id: id, sections: sections, rows: rows, ver: make([]uint32, sections*rows)}
}

func (c *catalogue) url() string { return fmt.Sprintf("cat/p%d.html", c.id) }

// html renders the current revision.
func (c *catalogue) html() string {
	var b strings.Builder
	b.Grow(len(c.ver) * 80)
	fmt.Fprintf(&b, "<html><head><title>Catalogue %d</title></head><body>\n<h1>Catalogue %d</h1>\n<p class=\"rev\">r%d</p>\n", c.id, c.id, c.rev)
	for s := 0; s < c.sections; s++ {
		fmt.Fprintf(&b, "<div class=\"sec\"><h2>Section %d</h2><table>\n", s)
		for r := 0; r < c.rows; r++ {
			i := s*c.rows + r
			h := mix(uint64(c.seed)*0x100000001b3 ^ uint64(c.id)<<40 ^ uint64(i)<<20 ^ uint64(c.ver[i]))
			fmt.Fprintf(&b, "<tr><td class=\"t\">%s %s #%d</td><td class=\"p\">%d.%02d</td><td class=\"s\">%d</td></tr>\n",
				adjectives[h%8], nouns[(h>>8)%10], i, 5+(h>>16)%495, (h>>32)%100, (h>>40)%50)
		}
		b.WriteString("</table></div>\n")
	}
	b.WriteString("</body></html>\n")
	return b.String()
}

// churn moves the page to its next revision, rewriting ~5% of its rows
// (at least one), chosen by a stream derived from (seed, page, rev).
func (c *catalogue) churn() {
	c.rev++
	r := rng(c.seed, uint64(c.id)<<32|uint64(c.rev))
	n := max(1, len(c.ver)/20)
	for range n {
		c.ver[r.IntN(len(c.ver))]++
	}
}

// Catalogue program templates. Every template extracts the revision
// marker and the same page/section/item paths, so a fleet stamped from
// them shares compiled matches through the fleet match cache; they
// differ in which cells they keep.
var catalogueTemplates = []string{
	"title(S, X) <- item(_, S), subelem(S, (?.td, [(class, t, exact)]), X)\n" +
		"price(S, X) <- item(_, S), subelem(S, (?.td, [(class, p, exact)]), X)",
	"title(S, X) <- item(_, S), subelem(S, (?.td, [(class, t, exact)]), X)",
	"price(S, X) <- item(_, S), subelem(S, (?.td, [(class, p, exact)]), X)\n" +
		"stock(S, X) <- item(_, S), subelem(S, (?.td, [(class, s, exact)]), X)",
	"title(S, X) <- item(_, S), subelem(S, (?.td, [(class, t, exact)]), X)\n" +
		"price(S, X) <- item(_, S), subelem(S, (?.td, [(class, p, exact)]), X)\n" +
		"stock(S, X) <- item(_, S), subelem(S, (?.td, [(class, s, exact)]), X)",
}

func catalogueProgram(url string, template int) string {
	return fmt.Sprintf(`page(S, X) <- document(%q, S), subelem(S, .body, X)
rev(S, X) <- page(_, S), subelem(S, (?.p, [(class, rev, exact)]), X)
section(S, X) <- page(_, S), subelem(S, (?.div, [(class, sec, exact)]), X)
item(S, X) <- section(_, S), subelem(S, ?.tr, X)
%s
`, url, catalogueTemplates[template%len(catalogueTemplates)])
}

// auctionPage renders a Figure-5-style eBay listing: a header table,
// one table per item (description link, price with currency, bids),
// and a rule closing the listing.
func auctionPage(seed int64, op, items int) string {
	r := rng(seed, 0xeba7<<32|uint64(op))
	var b strings.Builder
	b.WriteString("<html><head><title>Auctions</title></head><body>")
	b.WriteString(`<table class="hdr"><tr><td><b>item</b></td><td>price</td><td>bids</td></tr></table>`)
	for i := range items {
		fmt.Fprintf(&b, `<table class="item"><tr><td><a href="item%d.html">%s %s #%d</a></td><td>%s %d.%02d</td><td>%d bids</td></tr></table>`,
			i, adjectives[r.IntN(8)], nouns[r.IntN(10)], i+1, currencies[r.IntN(3)], 5+r.IntN(495), r.IntN(100), r.IntN(30))
	}
	fmt.Fprintf(&b, `<hr><p class="rev">r%d</p></body></html>`, op)
	return b.String()
}

// auctionProgram is the Figure 5 wrapper without its crawling rules,
// plus the revision marker.
const auctionProgram = `tableseq(S, X) <- document("ebay/listing.html", S),
    subsq(S, (.body, []), (.table, []), (.table, []), X),
    before(S, X, (.table, [(elementtext, item, substr)]), 0, 0, _, _),
    after(S, X, .hr, 0, 0, _, _)
record(S, X) <- tableseq(_, S), subelem(S, .table, X)
itemdes(S, X) <- record(_, S), subelem(S, (?.td.?.a, []), X)
price(S, X) <- record(_, S), subelem(S, (?.td, [(elementtext, \var[Y].*, regvar)]), X), isCurrency(Y)
bids(S, X) <- record(_, S), subelem(S, ?.td, X), before(S, X, ?.td, 0, 30, Y, _), price(_, Y)
currency(S, X) <- price(_, S), subtext(S, \var[Y], X), isCurrency(Y)
rev(S, X) <- document("ebay/listing.html", S), subelem(S, (?.p, [(class, rev, exact)]), X)
`

// nestedPage renders depth nested divs, each carrying a label.
func nestedPage(seed int64, op, depth int) string {
	r := rng(seed, 0xdee9<<32|uint64(op))
	var b strings.Builder
	fmt.Fprintf(&b, `<html><body><p class="rev">r%d</p>`, op)
	for i := range depth {
		fmt.Fprintf(&b, "<div><b>%s %d</b>", nouns[r.IntN(10)], i)
	}
	b.WriteString(strings.Repeat("</div>", depth))
	b.WriteString("</body></html>")
	return b.String()
}

// nestedProgram is the recursive wrapper d(S,X) <- d(_,S), subelem(S,.div,X):
// its naive fixpoint costs grow with the square of page depth.
const nestedProgram = `d(S, X) <- document("deep/nested.html", S), subelem(S, .body.div, X)
d(S, X) <- d(_, S), subelem(S, .div, X)
label(S, X) <- d(_, S), subelem(S, .b, X)
rev(S, X) <- document("deep/nested.html", S), subelem(S, (?.p, [(class, rev, exact)]), X)
`

// extractRequest is one cold_extract op: a program and an inline page
// the server has never seen.
type extractRequest struct {
	url     string // the program's document URL
	program string
	html    string
	root    string
	aux     []string
}

// coldMix is the order of request kinds in every block of ten ops:
// five large flat catalogues (c), three Figure-5 auction listings (a)
// and two nested pages of a few hundred levels under the recursive
// wrapper (n). A short listing follows each nested page, so no
// catalogue — the kind the median falls on — queues behind one.
const coldMix = "cnaccacnac"

// coldRequest draws op's request from the mix. Every window sends the
// same kinds in the same order at the same sizes, so the latency
// percentiles fall on the same kind of request in every run and the
// queueing between requests repeats; only the content is drawn from
// the seed.
func coldRequest(seed int64, op int, sz sizes) extractRequest {
	r := rng(seed, 0xc01d<<32|uint64(op))
	switch coldMix[op%len(coldMix)] {
	case 'c':
		c := newCatalogue(seed^int64(op)<<20, 1000000+op, sz.coldSections, sz.coldRows)
		c.rev = op
		return extractRequest{url: c.url(), program: catalogueProgram(c.url(), r.IntN(len(catalogueTemplates))),
			html: c.html(), root: "catalogue", aux: []string{"page", "section"}}
	case 'a':
		return extractRequest{url: "ebay/listing.html", program: auctionProgram,
			html: auctionPage(seed, op, sz.auctionItems), root: "auctions", aux: []string{"tableseq"}}
	default:
		return extractRequest{url: "deep/nested.html", program: nestedProgram,
			html: nestedPage(seed, op, sz.nestedDepth), root: "nested"}
	}
}

// revOf returns the revision named by an output document's <rev>
// element, or -1 when it carries none.
func revOf(payload []byte) int {
	i := bytes.Index(payload, []byte("<rev>r"))
	if i < 0 {
		return -1
	}
	s := payload[i+len("<rev>r"):]
	j := bytes.IndexByte(s, '<')
	if j < 0 {
		return -1
	}
	n, err := strconv.Atoi(string(bytes.TrimSpace(s[:j])))
	if err != nil {
		return -1
	}
	return n
}
