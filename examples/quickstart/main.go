// Command quickstart is the five-minute tour: compile an Elog wrapper
// with the public SDK (repro/pkg/lixto), run it against a page, and
// print the extracted XML.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/datalog"
	"repro/internal/htmlparse"
	"repro/internal/mdatalog"
	"repro/internal/xmlenc"
	"repro/internal/xpath"
	"repro/pkg/lixto"
)

// A bestseller page as a bookshop might serve it.
const page = `
<html><body>
  <h1>Staff picks</h1>
  <table class="books">
    <tr class="book"><td class="title">Foundations of Databases</td><td class="price">$ 54.00</td></tr>
    <tr class="book"><td class="title">Monadic Datalog and Web Information Extraction</td><td class="price">$ 12.00</td></tr>
    <tr class="book"><td class="title">The Complexity of XPath</td><td class="price">$ 9.50</td></tr>
  </table>
</body></html>`

// The wrapper: an Elog program in the language of Section 3.3 of the
// Lixto paper. Patterns are binary predicates over (parent instance,
// instance); subelem extracts tree nodes by element path definitions.
const wrapper = `
page(S, X)  <- document("shop", S), subelem(S, .body, X)
book(S, X)  <- page(_, S), subelem(S, (?.tr, [(class, book, exact)]), X)
title(S, X) <- book(_, S), subelem(S, (?.td, [(class, title, exact)]), X)
price(S, X) <- book(_, S), subelem(S, (?.td, [(class, price, exact)]), X)
`

func main() {
	// page is an auxiliary pattern: it structures the wrapper but should
	// not appear in the output XML.
	w, err := lixto.Compile(wrapper,
		lixto.WithAuxiliary("page"),
		lixto.WithRoot("books"))
	if err != nil {
		log.Fatal(err)
	}

	res, err := w.Extract(context.Background(), lixto.HTML(page))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(xmlenc.MarshalIndent(res.XML()))

	// The same document is queryable with XPath and monadic datalog.
	doc := htmlparse.Parse(page)
	query, err := xpath.Parse("//tr[td[@class='price'] and count(td)=2]/td[1]")
	if err != nil {
		log.Fatal(err)
	}
	cheap, err := xpath.EvalFull(query, doc, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nXPath found %d title cells\n", len(cheap))

	// Monadic datalog over the tree signature, evaluated in
	// O(|P|·|dom|) (Theorem 2.4).
	prog, err := datalog.Parse(`
intable(X) :- label_table(X0), child(X0, X).
intable(X) :- intable(X0), child(X0, X).
cell(X) :- intable(X), label_td(X).
`)
	if err != nil {
		log.Fatal(err)
	}
	titles, err := mdatalog.Query(prog, doc, "cell")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("monadic datalog found %d table cells\n", len(titles))
}
