// Command ebay runs the extraction program of Figure 5 of the paper —
// the eBay wrapper — against a simulated auction site, including
// crawling across result pages, and prints the integrated XML.
//
//	go run ./examples/ebay
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/web"
	"repro/internal/xmlenc"
	"repro/pkg/lixto"
)

// figure5 is the Elog program of Figure 5 (pattern names normalized; the
// bids rule descends with ?.td since cells sit below tr). The extra
// next/nextdoc rules add the paper's Web-crawling feature: the wrapper
// follows "next page" links and keeps extracting.
const figure5 = `
tableseq(S, X) <- document("www.ebay.com/", S),
    subsq(S, (.body, []), (.table, []), (.table, []), X),
    before(S, X, (.table, [(elementtext, item, substr)]), 0, 0, _, _),
    after(S, X, .hr, 0, 0, _, _)
record(S, X) <- tableseq(_, S), subelem(S, .table, X)
itemdes(S, X) <- record(_, S), subelem(S, (?.td.?.a, []), X)
price(S, X) <- record(_, S), subelem(S, (?.td, [(elementtext, \var[Y].*, regvar)]), X), isCurrency(Y)
bids(S, X) <- record(_, S), subelem(S, ?.td, X), before(S, X, ?.td, 0, 30, Y, _), price(_, Y)
currency(S, X) <- price(_, S), subtext(S, \var[Y], X), isCurrency(Y)

% Crawling: follow the next-page link and wrap the next page the same way.
nextlink(S, X) <- document("www.ebay.com/", S), subelem(S, (?.a, [(class, next, exact)]), X)
nexturl(S, X) <- nextlink(_, S), subatt(S, href, X)
nextpage(S, X) <- nexturl(_, S), getDocument(S, X)
tableseq2(S, X) <- nextpage(_, S),
    subsq(S, (.body, []), (.table, []), (.table, []), X),
    before(S, X, (.table, [(elementtext, item, substr)]), 0, 0, _, _),
    after(S, X, .hr, 0, 0, _, _)
record(S, X) <- tableseq2(_, S), subelem(S, .table, X)
`

func main() {
	sim := web.New()
	site := web.NewAuctionSite(2004, 40) // two pages of 25 + 15
	site.Register(sim, "www.ebay.com")

	w, err := lixto.Compile(figure5,
		lixto.WithFetcher(sim),
		lixto.WithAuxiliary("tableseq", "tableseq2", "nextlink", "nexturl", "nextpage"),
		lixto.WithRoot("auctions"))
	if err != nil {
		log.Fatal(err)
	}

	res, err := w.Extract(context.Background(), lixto.Origin())
	if err != nil {
		log.Fatal(err)
	}
	records := res.XML().Find("record")
	fmt.Printf("extracted %d records from %d items across %d page fetches\n\n",
		len(records), len(site.Items), sim.FetchCount("www.ebay.com/")+sim.FetchCount("www.ebay.com/page1.html"))
	for i, r := range records {
		if i >= 5 {
			fmt.Printf("... (%d more)\n", len(records)-5)
			break
		}
		fmt.Println(xmlenc.Marshal(r))
	}
}
