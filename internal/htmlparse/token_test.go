package htmlparse

import "testing"

func TestEscapes(t *testing.T) {
	cases := []struct{ in, text, attr string }{
		{"", "", ""},
		{"plain", "plain", "plain"},
		{"a & b", "a &amp; b", "a &amp; b"},
		{"<td>", "&lt;td&gt;", "&lt;td&gt;"},
		{`say "hi"`, `say "hi"`, "say &quot;hi&quot;"},
		{`&<>"`, `&amp;&lt;&gt;"`, "&amp;&lt;&gt;&quot;"},
		{"&amp;", "&amp;amp;", "&amp;amp;"},
		{"ünï €", "ünï €", "ünï €"},
	}
	for _, c := range cases {
		if got := EscapeText(c.in); got != c.text {
			t.Errorf("EscapeText(%q) = %q, want %q", c.in, got, c.text)
		}
		if got := EscapeAttr(c.in); got != c.attr {
			t.Errorf("EscapeAttr(%q) = %q, want %q", c.in, got, c.attr)
		}
	}
}

// TestEscapeNoAllocs pins that text without special characters passes
// through both escapers without allocating.
func TestEscapeNoAllocs(t *testing.T) {
	const s = "The quick brown fox, $ 12.50 (row 7)"
	if n := testing.AllocsPerRun(100, func() {
		_ = EscapeText(s)
		_ = EscapeAttr(s)
	}); n != 0 {
		t.Fatalf("escaping plain text allocated %.1f times per run, want 0", n)
	}
}
