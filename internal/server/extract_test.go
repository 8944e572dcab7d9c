package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/pkg/lixto"
)

// TestV1ExtractServesPublishedBytes pins the encode-once extract
// response: the body of POST .../extract is exactly what GET
// .../results serves for the Lixto-Version the response reports, and
// both equal the stateless encoding of the same extraction.
func TestV1ExtractServesPublishedBytes(t *testing.T) {
	_, ts := newDynamicServer(t, Config{})
	code, body, _ := do(t, "POST", ts.URL+"/v1/wrappers",
		map[string]any{"name": "books", "program": v1Wrapper, "html": v1Page, "auxiliary": []string{"page"}})
	if code != 201 {
		t.Fatalf("create: %d %s", code, body)
	}
	lw, err := lixto.Compile(v1Wrapper, lixto.WithAuxiliary("page"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		page := strings.ReplaceAll(v1Page, "Foundations of Databases", fmt.Sprintf("Volume %d", i))
		code, got, hdr := do(t, "POST", ts.URL+"/v1/wrappers/books/extract", map[string]any{"html": page})
		if code != 200 || hdr.Get("Content-Type") != "application/xml; charset=utf-8" ||
			!strings.Contains(hdr.Get("Vary"), "Accept") {
			t.Fatalf("extract %d: %d %q %q", i, code, hdr.Get("Content-Type"), hdr.Get("Vary"))
		}
		code, latest, lhdr := do(t, "GET", ts.URL+"/v1/wrappers/books/results", nil)
		if code != 200 || lhdr.Get("Lixto-Version") != hdr.Get("Lixto-Version") {
			t.Fatalf("results %d: %d, version %q, extract reported %q",
				i, code, lhdr.Get("Lixto-Version"), hdr.Get("Lixto-Version"))
		}
		if got != latest {
			t.Fatalf("extract %d body differs from results at its version:\n--- extract ---\n%s\n--- results ---\n%s", i, got, latest)
		}
		res, err := lw.Extract(t.Context(), lixto.HTML(page))
		if err != nil {
			t.Fatal(err)
		}
		if want := marshalIndent(res); got != want {
			t.Fatalf("extract %d body differs from the stateless encoding:\n--- got ---\n%s\n--- want ---\n%s", i, got, want)
		}
	}
}

// TestV1ExtractFallbackReturnsOwnDocument covers the responses that
// cannot reuse the published encoding: JSON, a re-delivery folded into
// the previous snapshot, and concurrent extracts racing each other's
// publishes. Each must still answer with its own request's document.
func TestV1ExtractFallbackReturnsOwnDocument(t *testing.T) {
	s, ts := newDynamicServer(t, Config{})
	code, body, _ := do(t, "POST", ts.URL+"/v1/wrappers",
		map[string]any{"name": "books", "program": v1Wrapper, "html": v1Page, "auxiliary": []string{"page"}})
	if code != 201 {
		t.Fatalf("create: %d %s", code, body)
	}
	extract := "/v1/wrappers/books/extract"

	// JSON is never the published XML.
	code, body, hdr := do(t, "POST", ts.URL+extract,
		map[string]any{"html": strings.ReplaceAll(v1Page, "Foundations of Databases", "JSON volume")},
		"Accept", "application/json")
	if code != 200 || hdr.Get("Content-Type") != "application/json; charset=utf-8" ||
		!strings.Contains(body, "JSON volume") {
		t.Fatalf("json extract: %d %q %s", code, hdr.Get("Content-Type"), body)
	}

	// Identical content re-delivered: the publish folds it into the
	// current snapshot, and the response is still this document.
	page := strings.ReplaceAll(v1Page, "Foundations of Databases", "Same volume")
	_, first, hdr1 := do(t, "POST", ts.URL+extract, map[string]any{"html": page})
	suppressed := s.pipe("books").deliver.suppressed.Load()
	code, second, hdr2 := do(t, "POST", ts.URL+extract, map[string]any{"html": page})
	if code != 200 || second != first || hdr2.Get("Lixto-Version") == hdr1.Get("Lixto-Version") {
		t.Fatalf("re-delivery: %d, versions %q then %q, bodies equal %v",
			code, hdr1.Get("Lixto-Version"), hdr2.Get("Lixto-Version"), second == first)
	}
	if s.pipe("books").deliver.suppressed.Load() != suppressed+1 {
		t.Fatal("identical re-delivery was not folded into the current snapshot")
	}

	// Concurrent extracts publish over each other; every response
	// carries its own title.
	var wg sync.WaitGroup
	errs := make(chan string, 32)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				title := fmt.Sprintf("Racer %d-%d", g, i)
				req, _ := json.Marshal(map[string]any{"html": strings.ReplaceAll(v1Page, "Foundations of Databases", title)})
				resp, err := http.Post(ts.URL+extract, "application/json", bytes.NewReader(req))
				if err != nil {
					errs <- err.Error()
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != 200 || !strings.Contains(string(body), ">"+title+"<") {
					errs <- fmt.Sprintf("%s: %d %v %s", title, resp.StatusCode, err, body)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
