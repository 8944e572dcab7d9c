// Package htmlparse implements a self-contained, forgiving HTML tokenizer
// and parser producing dom.Tree parse trees.
//
// Web wrappers operate on parse trees of real-world HTML, which is rarely
// well-formed; like the parser embedded in the Lixto Visual Wrapper, this
// one therefore repairs common malformations: unclosed <li>/<td>/<tr>/<p>
// elements, stray end tags, void elements without slashes, unquoted
// attribute values, and undeclared entities. It intentionally implements
// a pragmatic subset of the HTML5 algorithm — enough to parse everything
// the simulated web of internal/web produces plus the usual hand-written
// HTML idioms — rather than the full specification.
package htmlparse

import (
	"strings"
)

// TokenType enumerates the lexical token classes of HTML.
type TokenType int

const (
	// TextToken is character data between tags.
	TextToken TokenType = iota
	// StartTagToken is <name attr=...>.
	StartTagToken
	// EndTagToken is </name>.
	EndTagToken
	// SelfClosingToken is <name .../>.
	SelfClosingToken
	// CommentToken is <!-- ... -->.
	CommentToken
	// DoctypeToken is <!DOCTYPE ...>.
	DoctypeToken
)

func (t TokenType) String() string {
	switch t {
	case TextToken:
		return "text"
	case StartTagToken:
		return "start"
	case EndTagToken:
		return "end"
	case SelfClosingToken:
		return "selfclosing"
	case CommentToken:
		return "comment"
	case DoctypeToken:
		return "doctype"
	}
	return "unknown"
}

// Attr is a lexical attribute of a start tag.
type Attr struct {
	Name  string
	Value string
}

// Token is one lexical token. For tag tokens, Data is the lower-cased tag
// name; for text and comments it is the (entity-decoded) character data.
type Token struct {
	Type  TokenType
	Data  string
	Attrs []Attr
}

// Tokenizer splits HTML source into tokens. It never fails: malformed
// input degrades to text tokens.
type Tokenizer struct {
	src string
	pos int
	// rawUntil, when non-empty, makes the tokenizer treat everything up
	// to the matching end tag as raw text (script/style contents).
	rawUntil string
	// NoRawText disables the HTML raw-text elements (script, style,
	// title, textarea); set by XML consumers, where those names are
	// ordinary elements.
	NoRawText bool
	// scratch backs the attribute lists of NextStream tokens, reused
	// across calls; reuse selects it over a fresh allocation.
	scratch []Attr
	reuse   bool
}

// NewTokenizer returns a tokenizer over src.
func NewTokenizer(src string) *Tokenizer {
	return &Tokenizer{src: src}
}

// Next returns the next token and false when the input is exhausted.
// The token's attribute slice is freshly allocated and owned by the
// caller.
func (z *Tokenizer) Next() (Token, bool) {
	z.reuse = false
	return z.next()
}

// NextStream is Next with zero-copy attribute handling: the returned
// token's Attrs alias an internal scratch buffer that the following
// NextStream call overwrites. Streaming consumers that process each
// token before asking for the next one (the arena tree builder) avoid
// one slice allocation per tag this way.
func (z *Tokenizer) NextStream() (Token, bool) {
	z.reuse = true
	return z.next()
}

func (z *Tokenizer) next() (Token, bool) {
	if z.pos >= len(z.src) {
		return Token{}, false
	}
	if z.rawUntil != "" {
		return z.rawText(), true
	}
	if z.src[z.pos] == '<' {
		if tok, ok := z.tag(); ok {
			return tok, true
		}
		// A lone '<' that does not begin a tag: emit it as text.
	}
	return z.text(), true
}

func (z *Tokenizer) rawText() Token {
	end := "</" + z.rawUntil
	low := strings.ToLower(z.src[z.pos:])
	idx := strings.Index(low, end)
	var data string
	if idx < 0 {
		data = z.src[z.pos:]
		z.pos = len(z.src)
	} else {
		data = z.src[z.pos : z.pos+idx]
		z.pos += idx
	}
	z.rawUntil = ""
	return Token{Type: TextToken, Data: data}
}

func (z *Tokenizer) text() Token {
	start := z.pos
	for z.pos < len(z.src) {
		if z.src[z.pos] == '<' && z.pos > start {
			break
		}
		if z.src[z.pos] == '<' && z.pos == start {
			// Starts with '<' but tag() declined: consume the character.
			z.pos++
			continue
		}
		z.pos++
	}
	return Token{Type: TextToken, Data: DecodeEntities(z.src[start:z.pos])}
}

// tag attempts to lex a tag at z.pos (which is '<'). It returns ok=false
// if the input cannot be a tag, leaving pos unchanged.
func (z *Tokenizer) tag() (Token, bool) {
	s := z.src
	i := z.pos + 1
	if i >= len(s) {
		return Token{}, false
	}
	switch {
	case strings.HasPrefix(s[i:], "!--"):
		end := strings.Index(s[i+3:], "-->")
		var data string
		if end < 0 {
			data = s[i+3:]
			z.pos = len(s)
		} else {
			data = s[i+3 : i+3+end]
			z.pos = i + 3 + end + 3
		}
		return Token{Type: CommentToken, Data: data}, true
	case s[i] == '!' || s[i] == '?':
		// Doctype or processing instruction.
		end := strings.IndexByte(s[i:], '>')
		if end < 0 {
			z.pos = len(s)
			return Token{Type: DoctypeToken, Data: s[i:]}, true
		}
		z.pos = i + end + 1
		return Token{Type: DoctypeToken, Data: s[i : i+end]}, true
	case s[i] == '/':
		j := i + 1
		start := j
		for j < len(s) && isNameChar(s[j]) {
			j++
		}
		if j == start {
			return Token{}, false
		}
		name := strings.ToLower(s[start:j])
		// Skip to '>'.
		for j < len(s) && s[j] != '>' {
			j++
		}
		if j < len(s) {
			j++
		}
		z.pos = j
		return Token{Type: EndTagToken, Data: name}, true
	case isNameStart(s[i]):
		j := i
		for j < len(s) && isNameChar(s[j]) {
			j++
		}
		name := strings.ToLower(s[i:j])
		attrs, selfClose, newPos := z.attrs(j)
		z.pos = newPos
		typ := StartTagToken
		if selfClose {
			typ = SelfClosingToken
		}
		if typ == StartTagToken && !z.NoRawText && isRawText(name) {
			z.rawUntil = name
		}
		return Token{Type: typ, Data: name, Attrs: attrs}, true
	}
	return Token{}, false
}

// attrs lexes the attribute list starting at position j, returning the
// attributes, whether the tag is self-closing, and the position just
// past the closing '>'. In reuse mode the list is built in the scratch
// buffer, whose grown capacity is kept for the next tag.
func (z *Tokenizer) attrs(j int) ([]Attr, bool, int) {
	attrs, selfClose, pos := z.lexAttrs(j)
	if z.reuse {
		z.scratch = attrs
	}
	return attrs, selfClose, pos
}

func (z *Tokenizer) lexAttrs(j int) ([]Attr, bool, int) {
	s := z.src
	var attrs []Attr
	if z.reuse {
		attrs = z.scratch[:0]
	}
	selfClose := false
	for j < len(s) {
		// Skip whitespace.
		for j < len(s) && isSpace(s[j]) {
			j++
		}
		if j >= len(s) {
			break
		}
		if s[j] == '>' {
			return attrs, selfClose, j + 1
		}
		if s[j] == '/' {
			selfClose = true
			j++
			continue
		}
		// Attribute name.
		start := j
		for j < len(s) && s[j] != '=' && s[j] != '>' && s[j] != '/' && !isSpace(s[j]) {
			j++
		}
		name := strings.ToLower(s[start:j])
		if name == "" {
			j++
			continue
		}
		for j < len(s) && isSpace(s[j]) {
			j++
		}
		if j < len(s) && s[j] == '=' {
			j++
			for j < len(s) && isSpace(s[j]) {
				j++
			}
			var val string
			if j < len(s) && (s[j] == '"' || s[j] == '\'') {
				q := s[j]
				j++
				vs := j
				for j < len(s) && s[j] != q {
					j++
				}
				val = s[vs:j]
				if j < len(s) {
					j++
				}
			} else {
				vs := j
				for j < len(s) && !isSpace(s[j]) && s[j] != '>' {
					j++
				}
				val = s[vs:j]
			}
			attrs = append(attrs, Attr{Name: name, Value: DecodeEntities(val)})
		} else {
			attrs = append(attrs, Attr{Name: name, Value: ""})
		}
	}
	return attrs, selfClose, len(s)
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f'
}

func isNameStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isNameChar(c byte) bool {
	return isNameStart(c) || c >= '0' && c <= '9' || c == '-' || c == '_' || c == ':'
}

// isRawText reports whether the element's content is raw text (no markup
// recognized inside).
func isRawText(name string) bool {
	switch name {
	case "script", "style", "textarea", "title":
		return true
	}
	return false
}

// entities is the set of named character references the decoder knows.
// Real-world wrapping needs only the common ones; numeric references are
// handled generically.
var entities = map[string]rune{
	"amp": '&', "lt": '<', "gt": '>', "quot": '"', "apos": '\'',
	"nbsp": ' ', "copy": '©', "reg": '®', "trade": '™',
	"hellip": '…', "mdash": '—', "ndash": '–', "laquo": '«', "raquo": '»',
	"euro": '€', "pound": '£', "yen": '¥', "cent": '¢', "sect": '§',
	"deg": '°', "plusmn": '±', "middot": '·', "times": '×', "divide": '÷',
	"lsquo": '‘', "rsquo": '’', "ldquo": '“', "rdquo": '”',
	"auml": 'ä', "ouml": 'ö', "uuml": 'ü', "Auml": 'Ä', "Ouml": 'Ö', "Uuml": 'Ü', "szlig": 'ß',
	"eacute": 'é', "egrave": 'è', "agrave": 'à', "ccedil": 'ç',
}

// DecodeEntities replaces character references (&amp;, &#65;, &#x41;)
// with the characters they denote. Unknown references are left verbatim,
// matching browser behaviour.
func DecodeEntities(s string) string {
	if !strings.ContainsRune(s, '&') {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); {
		c := s[i]
		if c != '&' {
			b.WriteByte(c)
			i++
			continue
		}
		semi := strings.IndexByte(s[i:], ';')
		if semi < 0 || semi > 10 {
			b.WriteByte(c)
			i++
			continue
		}
		ref := s[i+1 : i+semi]
		if r, ok := decodeRef(ref); ok {
			b.WriteRune(r)
			i += semi + 1
		} else {
			b.WriteByte(c)
			i++
		}
	}
	return b.String()
}

func decodeRef(ref string) (rune, bool) {
	if ref == "" {
		return 0, false
	}
	if ref[0] == '#' {
		num := ref[1:]
		base := 10
		if len(num) > 0 && (num[0] == 'x' || num[0] == 'X') {
			base = 16
			num = num[1:]
		}
		var v int64
		for _, c := range num {
			var d int64
			switch {
			case c >= '0' && c <= '9':
				d = int64(c - '0')
			case base == 16 && c >= 'a' && c <= 'f':
				d = int64(c-'a') + 10
			case base == 16 && c >= 'A' && c <= 'F':
				d = int64(c-'A') + 10
			default:
				return 0, false
			}
			v = v*int64(base) + d
			if v > 0x10FFFF {
				return 0, false
			}
		}
		if v == 0 {
			return 0, false
		}
		return rune(v), true
	}
	r, ok := entities[ref]
	return r, ok
}

// The escapers are built once: a strings.Replacer is safe for
// concurrent use and returns its input unallocated when nothing needs
// escaping.
var (
	textEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	attrEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
)

// EscapeText escapes character data for inclusion in HTML/XML text
// content.
func EscapeText(s string) string { return textEscaper.Replace(s) }

// EscapeAttr escapes an attribute value for double-quoted inclusion.
func EscapeAttr(s string) string { return attrEscaper.Replace(s) }
