package apps

import (
	"bytes"
	"testing"

	"repro/internal/elog"
	"repro/internal/pib"
	"repro/internal/transform"
	"repro/internal/web"
	"repro/internal/xmlenc"
)

// fullRebuild renders src's program over fetch the way a full rebuild
// does: a fresh compile evaluated without incremental reuse,
// transformed with pib.Design.Transform (the wrapper source's default
// design when src has none), given the source's attribute, and encoded
// with xmlenc.MarshalIndentBytes.
func fullRebuild(src *transform.WrapperSource, fetch elog.Fetcher) ([]byte, error) {
	cp, err := elog.Compile(src.Program)
	if err != nil {
		return nil, err
	}
	base, err := elog.NewEvaluator(fetch).RunCompiled(cp)
	if err != nil {
		return nil, err
	}
	design := src.Design
	if design == nil {
		design = &pib.Design{Auxiliary: map[string]bool{"document": true}}
	}
	doc := design.Transform(base)
	if !src.NoSourceAttr {
		doc.SetAttr("source", src.CompName)
	}
	return xmlenc.MarshalIndentBytes(doc), nil
}

// TestAppWrappersOutputDifferential extends the incremental
// differential to the output layer: for every Section 6 application
// wrapper, a long-lived source with incremental matching, incremental
// output, and the splice-based encoder must serve bytes identical to a
// full rebuild and re-encode of every step of a lockstep churn
// sequence.
func TestAppWrappersOutputDifferential(t *testing.T) {
	engines := map[string]*transform.Engine{}
	if app, err := NewNowPlaying(17); err == nil {
		engines["nowplaying"] = app.Engine
	} else {
		t.Fatal(err)
	}
	if app, err := NewFlightInfo(11, []Subscription{{Number: "OS105"}}); err == nil {
		engines["flightinfo"] = app.Engine
	} else {
		t.Fatal(err)
	}
	if app, err := NewPressClipping(5); err == nil {
		engines["pressclipping"] = app.Engine
	} else {
		t.Fatal(err)
	}
	if app, err := NewPowerTrading(9); err == nil {
		engines["powertrading"] = app.Engine
	} else {
		t.Fatal(err)
	}
	if app, err := NewViticulture([]string{"wachau", "kamptal"}); err == nil {
		engines["viticulture"] = app.Engine
	} else {
		t.Fatal(err)
	}
	if app, err := NewAutomotiveMonitor(23); err == nil {
		engines["automotive"] = app.Engine
	} else {
		t.Fatal(err)
	}

	var totalReused, totalSpliced uint64
	for appName, eng := range engines {
		for _, comp := range eng.Components() {
			src, ok := comp.(*transform.WrapperSource)
			if !ok {
				continue
			}
			for _, grow := range []bool{false, true} {
				churnInc := &web.ChurnFetcher{Inner: src.Fetcher, Seed: 31, PerStep: 3, Grow: grow}
				churnCold := &web.ChurnFetcher{Inner: src.Fetcher, Seed: 31, PerStep: 3, Grow: grow}
				inc := &transform.WrapperSource{
					CompName: src.CompName, Fetcher: churnInc,
					Program: src.Program, Design: src.Design,
				}
				enc := xmlenc.NewEncoder()
				for step := 0; step < 4; step++ {
					got, err := inc.Poll()
					if err != nil {
						t.Fatalf("%s/%s grow=%v step %d incremental: %v", appName, src.CompName, grow, step, err)
					}
					coldBytes, err := fullRebuild(src, churnCold)
					if err != nil {
						t.Fatalf("%s/%s grow=%v step %d cold: %v", appName, src.CompName, grow, step, err)
					}
					incBytes := enc.MarshalIndentBytes(got[0])
					if !bytes.Equal(incBytes, coldBytes) {
						t.Errorf("%s/%s grow=%v step %d: incremental+spliced bytes diverge from cold rebuild:\n--- cold ---\n%s--- incremental ---\n%s",
							appName, src.CompName, grow, step, coldBytes, incBytes)
					}
					churnInc.Advance()
					churnCold.Advance()
				}
				if !grow {
					st := inc.ExtractionStats()
					totalReused += st.OutputReusedNodes
					totalSpliced += enc.SplicedBytes()
				}
			}
		}
	}
	if totalReused == 0 {
		t.Error("no output nodes reused across any application wrapper under content-only churn")
	}
	if totalSpliced == 0 {
		t.Error("no encoded bytes spliced across any application wrapper under content-only churn")
	}
}
