package elog

import (
	"fmt"
	"regexp"
	"strings"

	"repro/internal/dom"
)

// EPD is an element path definition (Section 3.3): a path over tag
// names, where paths "may consist of certain regular expressions over
// tag names and may also put conditions on the values of HTML node
// attributes". The step language:
//
//	.tag      a child labeled tag
//	?         descent by zero or more levels (the Lixto wildcard)
//	*         any element child
//	content   any child node including text
//
// followed by an optional attribute-condition list
//
//	[(attr, value, mode), ...]
//
// with mode ∈ {exact, substr, regexp, regvar}; attr may be an HTML
// attribute name or the pseudo-attribute "elementtext" (the node's text
// content). Mode regvar matches value as a regular expression in which
// \var[Y] denotes a capture bound to the Elog variable Y — as in the
// price rule of Figure 5.
type EPD struct {
	Steps []EPDStep
	Conds []AttrCond
	src   string
}

// EPDStep is one path step. A "tag" step may carry alternatives
// (tag1|tag2|...), the paper's "certain regular expressions over tag
// names".
type EPDStep struct {
	// Kind: "tag", "deep" (?), "star" (*), "content".
	Kind string
	Tag  string
	// Alts are additional acceptable tags for a "tag" step.
	Alts []string
}

// matchesTag reports whether label matches the step's tag or one of its
// alternatives.
func (st EPDStep) matchesTag(label string) bool {
	if st.Tag == label {
		return true
	}
	for _, a := range st.Alts {
		if a == label {
			return true
		}
	}
	return false
}

// AttrCond is an attribute condition of an EPD.
type AttrCond struct {
	Attr  string // attribute name or "elementtext"
	Value string
	Mode  string // exact | substr | regexp | regvar
	Vars  []string
	re    *regexp.Regexp
}

func (e *EPD) String() string {
	if e.src != "" {
		return e.src
	}
	return e.sigString()
}

// sigString is the canonical textual identity of the path: unlike
// String it ignores the source spelling, so two paths that parse to
// the same steps and conditions are identified regardless of
// formatting. The cross-program match cache keys on its hash.
func (e *EPD) sigString() string {
	var b strings.Builder
	for _, s := range e.Steps {
		switch s.Kind {
		case "deep":
			b.WriteString("?")
		case "star":
			b.WriteString(".*")
		case "content":
			b.WriteString(".content")
		default:
			b.WriteString("." + strings.Join(append([]string{s.Tag}, s.Alts...), "|"))
		}
	}
	if len(e.Conds) > 0 {
		b.WriteString("[")
		for i, c := range e.Conds {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%s, %s, %s)", c.Attr, c.Value, c.Mode)
		}
		b.WriteString("]")
	}
	return b.String()
}

// ParseEPD parses an element path definition from its textual form,
// e.g. ".body", "?.td", "(?.td, [(elementtext, \\var[Y].*, regvar)])".
func ParseEPD(src string) (*EPD, error) {
	s := strings.TrimSpace(src)
	// Strip one level of wrapping parens: (path, [conds]).
	var condPart string
	if strings.HasPrefix(s, "(") && strings.HasSuffix(s, ")") {
		inner := s[1 : len(s)-1]
		// Split at the top-level comma before '['.
		depth := 0
		cut := -1
		for i := 0; i < len(inner); i++ {
			switch inner[i] {
			case '(', '[':
				depth++
			case ')', ']':
				depth--
			case ',':
				if depth == 0 {
					cut = i
				}
			}
			if cut >= 0 {
				break
			}
		}
		if cut >= 0 {
			condPart = strings.TrimSpace(inner[cut+1:])
			inner = strings.TrimSpace(inner[:cut])
		}
		s = inner
	}
	epd := &EPD{src: strings.TrimSpace(src)}
	if err := epd.parseSteps(s); err != nil {
		return nil, err
	}
	if condPart != "" {
		if err := epd.parseConds(condPart); err != nil {
			return nil, err
		}
	}
	return epd, nil
}

// MustParseEPD panics on error.
func MustParseEPD(src string) *EPD {
	e, err := ParseEPD(src)
	if err != nil {
		panic(err)
	}
	return e
}

func (e *EPD) parseSteps(s string) error {
	s = strings.TrimSpace(s)
	if s == "" {
		return fmt.Errorf("elog: empty element path")
	}
	i := 0
	for i < len(s) {
		switch {
		case s[i] == '?':
			e.Steps = append(e.Steps, EPDStep{Kind: "deep"})
			i++
			if i < len(s) && s[i] == '.' {
				i++
			}
		case s[i] == '.':
			i++
		case s[i] == '*':
			e.Steps = append(e.Steps, EPDStep{Kind: "star"})
			i++
			if i < len(s) && s[i] == '.' {
				i++
			}
		case s[i] == ' ':
			i++
		default:
			j := i
			for j < len(s) && s[j] != '.' && s[j] != '?' && s[j] != ' ' {
				j++
			}
			tag := s[i:j]
			if tag == "content" {
				e.Steps = append(e.Steps, EPDStep{Kind: "content"})
			} else if tag == "*" {
				e.Steps = append(e.Steps, EPDStep{Kind: "star"})
			} else if strings.Contains(tag, "|") {
				parts := strings.Split(strings.ToLower(tag), "|")
				e.Steps = append(e.Steps, EPDStep{Kind: "tag", Tag: parts[0], Alts: parts[1:]})
			} else {
				e.Steps = append(e.Steps, EPDStep{Kind: "tag", Tag: strings.ToLower(tag)})
			}
			i = j
			if i < len(s) && s[i] == '.' {
				i++
			}
		}
	}
	if len(e.Steps) == 0 {
		return fmt.Errorf("elog: no steps in element path %q", s)
	}
	return nil
}

// parseConds parses "[(attr, value, mode), ...]" — also accepting the
// paper's bare form "[attr, value, mode]".
func (e *EPD) parseConds(s string) error {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return fmt.Errorf("elog: attribute conditions must be bracketed: %q", s)
	}
	body := strings.TrimSpace(s[1 : len(s)-1])
	if body == "" {
		return nil
	}
	// Split into tuples at top level.
	var tuples []string
	if strings.HasPrefix(body, "(") {
		depth := 0
		start := 0
		for i := 0; i < len(body); i++ {
			switch body[i] {
			case '(':
				if depth == 0 {
					start = i
				}
				depth++
			case ')':
				depth--
				if depth == 0 {
					tuples = append(tuples, body[start+1:i])
				}
			}
		}
	} else {
		tuples = []string{body}
	}
	for _, tup := range tuples {
		parts := splitTop(tup, ',')
		if len(parts) < 2 {
			return fmt.Errorf("elog: bad attribute condition %q", tup)
		}
		c := AttrCond{Attr: strings.TrimSpace(parts[0])}
		c.Value = strings.TrimSpace(parts[1])
		c.Mode = "exact"
		if len(parts) >= 3 {
			c.Mode = strings.TrimSpace(parts[2])
		}
		if err := c.compile(); err != nil {
			return err
		}
		e.Conds = append(e.Conds, c)
	}
	return nil
}

// splitTop splits at the separator, ignoring separators nested in
// parentheses or brackets.
func splitTop(s string, sep byte) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case sep:
			if depth == 0 {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	out = append(out, s[start:])
	return out
}

// varRef matches \var[Y] in string path definitions and regvar values.
var varRef = regexp.MustCompile(`\\var\[([A-Za-z]\w*)\]`)

// compileVarPattern converts a Lixto pattern with \var[Y] references into
// a Go regular expression with capture groups, returning the variable
// names in group order. Bare \var[Y] captures a non-empty token.
func compileVarPattern(pattern string) (*regexp.Regexp, []string, error) {
	var vars []string
	expanded := varRef.ReplaceAllStringFunc(pattern, func(m string) string {
		name := varRef.FindStringSubmatch(m)[1]
		vars = append(vars, name)
		return `(\S+)`
	})
	re, err := regexp.Compile(expanded)
	if err != nil {
		return nil, nil, fmt.Errorf("elog: bad pattern %q: %w", pattern, err)
	}
	return re, vars, nil
}

func (c *AttrCond) compile() error {
	switch c.Mode {
	case "exact", "substr":
		return nil
	case "regexp":
		re, err := regexp.Compile(c.Value)
		if err != nil {
			return fmt.Errorf("elog: bad regexp in attribute condition: %w", err)
		}
		c.re = re
		return nil
	case "regvar":
		re, vars, err := compileVarPattern(c.Value)
		if err != nil {
			return err
		}
		c.re = re
		c.Vars = vars
		return nil
	}
	return fmt.Errorf("elog: unknown attribute-condition mode %q", c.Mode)
}

// match checks the condition on node n, returning variable bindings for
// regvar conditions.
func (c *AttrCond) match(t *dom.Tree, n dom.NodeID) (map[string]string, bool) {
	var val string
	if c.Attr == "elementtext" {
		val = strings.TrimSpace(t.ElementText(n))
	} else {
		v, ok := t.Attr(n, c.Attr)
		if !ok {
			return nil, false
		}
		val = v
	}
	switch c.Mode {
	case "exact":
		return nil, val == c.Value
	case "substr":
		return nil, strings.Contains(val, c.Value)
	case "regexp":
		return nil, c.re.MatchString(val)
	case "regvar":
		m := c.re.FindStringSubmatch(val)
		if m == nil {
			return nil, false
		}
		binds := map[string]string{}
		for i, v := range c.Vars {
			if i+1 < len(m) {
				binds[v] = m[i+1]
			}
		}
		return binds, true
	}
	return nil, false
}

// epdMatch is one EPD match: a node plus regvar bindings.
type epdMatch struct {
	node  dom.NodeID
	binds map[string]string
}

// Match evaluates the EPD against the given context roots in tree t. The
// roots act as a virtual parent: a leading tag step matches among the
// roots' children — and, for sequence instances whose members are the
// roots, among the members themselves when rootsAsChildren is set.
func (e *EPD) Match(t *dom.Tree, roots []dom.NodeID, rootsAsChildren bool) []epdMatch {
	// ctx is the current node set; a "tag" step selects children of ctx
	// (or, at step 0 with rootsAsChildren, the roots themselves).
	ctx := append([]dom.NodeID(nil), roots...)
	for si, step := range e.Steps {
		var next []dom.NodeID
		seen := map[dom.NodeID]bool{}
		add := func(n dom.NodeID) {
			if !seen[n] {
				seen[n] = true
				next = append(next, n)
			}
		}
		switch step.Kind {
		case "deep":
			for _, n := range ctx {
				add(n)
				t.WalkSubtree(n, func(m dom.NodeID) { add(m) })
			}
		case "tag", "star", "content":
			cands := func(yield func(dom.NodeID)) {
				if si == 0 && rootsAsChildren {
					for _, n := range ctx {
						yield(n)
					}
					return
				}
				for _, n := range ctx {
					for c := t.FirstChild(n); c != dom.Nil; c = t.NextSibling(c) {
						yield(c)
					}
				}
			}
			cands(func(c dom.NodeID) {
				switch step.Kind {
				case "tag":
					if t.Kind(c) == dom.Element && step.matchesTag(t.Label(c)) {
						add(c)
					}
				case "star":
					if t.Kind(c) == dom.Element {
						add(c)
					}
				case "content":
					add(c)
				}
			})
		}
		ctx = next
		if len(ctx) == 0 {
			return nil
		}
	}
	return e.applyConds(t, ctx)
}

// applyConds filters candidate nodes through the attribute conditions,
// returning one match (with regvar bindings) per surviving node, in
// input order. Both the interpreted Match above and the compiled bitset
// matcher funnel through here, so the condition semantics have a single
// home.
func (e *EPD) applyConds(t *dom.Tree, nodes []dom.NodeID) []epdMatch {
	var out []epdMatch
	for _, n := range nodes {
		var binds map[string]string // allocated on the first binding
		ok := true
		for i := range e.Conds {
			b, match := e.Conds[i].match(t, n)
			if !match {
				ok = false
				break
			}
			for k, v := range b {
				if binds == nil {
					binds = make(map[string]string, len(b))
				}
				binds[k] = v
			}
		}
		if ok {
			out = append(out, epdMatch{node: n, binds: binds})
		}
	}
	return out
}

// MatchDeep matches the EPD with an implicit leading descent: context
// conditions (before/after) and internal conditions (contains) look for
// "some other subtree" anywhere within their scope (Section 3.3), so
// their paths are anchored at any depth, unlike extraction paths which
// descend only where the path says so.
func (e *EPD) MatchDeep(t *dom.Tree, roots []dom.NodeID, rootsAsChildren bool) []epdMatch {
	deep := &EPD{Steps: append([]EPDStep{{Kind: "deep"}}, e.Steps...), Conds: e.Conds}
	return deep.Match(t, roots, rootsAsChildren)
}

// SelfMatch checks whether a single node matches the EPD's final tag
// step and conditions — used by subsq start/end delimiters, where the
// path denotes the delimiter node itself.
func (e *EPD) SelfMatch(t *dom.Tree, n dom.NodeID) bool {
	if len(e.Steps) == 0 {
		return false
	}
	last := e.Steps[len(e.Steps)-1]
	switch last.Kind {
	case "tag":
		if t.Kind(n) != dom.Element || !last.matchesTag(t.Label(n)) {
			return false
		}
	case "star":
		if t.Kind(n) != dom.Element {
			return false
		}
	}
	for i := range e.Conds {
		if _, ok := e.Conds[i].match(t, n); !ok {
			return false
		}
	}
	return true
}

// SPD is a string path definition: a regular expression over element
// text, possibly containing \var[Y] captures (Figure 5's currency rule).
type SPD struct {
	Pattern string
	Vars    []string
	re      *regexp.Regexp
}

// ParseSPD compiles a string path definition.
func ParseSPD(pattern string) (*SPD, error) {
	p := strings.TrimSpace(pattern)
	if strings.HasPrefix(p, `"`) && strings.HasSuffix(p, `"`) && len(p) >= 2 {
		p = p[1 : len(p)-1]
	}
	re, vars, err := compileVarPattern(p)
	if err != nil {
		return nil, err
	}
	return &SPD{Pattern: p, Vars: vars, re: re}, nil
}

func (s *SPD) String() string { return s.Pattern }

// spdMatch is one string match with bindings.
type spdMatch struct {
	text  string
	binds map[string]string
}

// Match finds all non-overlapping matches in text.
func (s *SPD) Match(text string) []spdMatch {
	var out []spdMatch
	for _, m := range s.re.FindAllStringSubmatch(text, -1) {
		binds := map[string]string{}
		for i, v := range s.Vars {
			if i+1 < len(m) {
				binds[v] = m[i+1]
			}
		}
		if len(binds) == 0 {
			binds = nil
		}
		out = append(out, spdMatch{text: m[0], binds: binds})
	}
	return out
}
