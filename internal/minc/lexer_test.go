package minc

import (
	"strings"
	"testing"
)

func kinds(toks []Token) []Kind {
	out := make([]Kind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func TestLexBasicTokens(t *testing.T) {
	toks, err := LexAll("t.c", "int main(void) { return 42; }")
	if err != nil {
		t.Fatal(err)
	}
	want := []Kind{KwInt, IDENT, LParen, KwVoid, RParen, LBrace, KwReturn, INT, Semi, RBrace, EOF}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d = %s, want %s", i, got[i], want[i])
		}
	}
	if toks[7].Val != 42 {
		t.Fatalf("int literal = %d", toks[7].Val)
	}
}

// operatorSpellings lists every operator the lexer knows, with its kind.
// TestLexOperators checks that it covers both operator tables.
var operatorSpellings = []struct {
	src  string
	kind Kind
}{
	{"<<=", ShlEq}, {">>=", ShrEq},
	{"->", Arrow}, {"+=", PlusEq}, {"-=", MinusEq}, {"*=", StarEq},
	{"/=", SlashEq}, {"%=", PercentEq}, {"&=", AmpEq}, {"|=", PipeEq},
	{"^=", CaretEq}, {"<<", Shl}, {">>", Shr}, {"==", EqEq}, {"!=", NotEq},
	{"<=", LtEq}, {">=", GtEq}, {"&&", AndAnd}, {"||", OrOr},
	{"++", PlusPlus}, {"--", MinusMinus},
	{"(", LParen}, {")", RParen}, {"{", LBrace}, {"}", RBrace},
	{"[", LBracket}, {"]", RBracket}, {";", Semi}, {",", Comma}, {".", Dot},
	{"=", Assign}, {"+", Plus}, {"-", Minus}, {"*", Star}, {"/", Slash},
	{"%", Percent}, {"&", Amp}, {"|", Pipe}, {"^", Caret}, {"~", Tilde},
	{"!", Bang}, {"<", Lt}, {">", Gt}, {"?", Question}, {":", Colon},
}

func TestLexOperators(t *testing.T) {
	listed := map[string]bool{}
	for _, op := range operatorSpellings {
		listed[op.src] = true
		toks, err := LexAll("t.c", op.src)
		if err != nil {
			t.Errorf("LexAll(%q): %v", op.src, err)
			continue
		}
		if len(toks) != 2 || toks[0].Kind != op.kind || toks[1].Kind != EOF {
			t.Errorf("LexAll(%q) = %v, want [%s EOF]", op.src, kinds(toks), op.kind)
		}
	}
	for s := range twoMap {
		if !listed[s] {
			t.Errorf("two-character operator %q missing from operatorSpellings", s)
		}
	}
	for c := range oneMap {
		if !listed[string(c)] {
			t.Errorf("one-character operator %q missing from operatorSpellings", string(c))
		}
	}
}

func TestLexOperatorsMaximalMunch(t *testing.T) {
	cases := []struct {
		src  string
		want []Kind
	}{
		{"<<=", []Kind{ShlEq, EOF}},
		{"<< =", []Kind{Shl, Assign, EOF}},
		{">>=", []Kind{ShrEq, EOF}},
		{">> =", []Kind{Shr, Assign, EOF}},
		{"<<<=", []Kind{Shl, LtEq, EOF}},
		{"->", []Kind{Arrow, EOF}},
		{"- >", []Kind{Minus, Gt, EOF}},
		{"a---b", []Kind{IDENT, MinusMinus, Minus, IDENT, EOF}},
		{"a+++b", []Kind{IDENT, PlusPlus, Plus, IDENT, EOF}},
		{"===", []Kind{EqEq, Assign, EOF}},
		{"&&&", []Kind{AndAnd, Amp, EOF}},
		{"p->x", []Kind{IDENT, Arrow, IDENT, EOF}},
		{"!==", []Kind{NotEq, Assign, EOF}},
	}
	for _, tc := range cases {
		toks, err := LexAll("t.c", tc.src)
		if err != nil {
			t.Errorf("LexAll(%q): %v", tc.src, err)
			continue
		}
		got := kinds(toks)
		if len(got) != len(tc.want) {
			t.Errorf("LexAll(%q) = %v, want %v", tc.src, got, tc.want)
			continue
		}
		for i := range tc.want {
			if got[i] != tc.want[i] {
				t.Errorf("LexAll(%q) = %v, want %v", tc.src, got, tc.want)
				break
			}
		}
	}
}

// TestLexOperatorsAllocFree pins that lexing an operator allocates nothing:
// the operator tables are built once, not per token.
func TestLexOperatorsAllocFree(t *testing.T) {
	var sb strings.Builder
	for _, op := range operatorSpellings {
		sb.WriteString(op.src)
		sb.WriteByte(' ')
	}
	src := sb.String()
	lx := NewLexer("t.c", src)
	allocs := testing.AllocsPerRun(100, func() {
		lx.pos, lx.line = 0, 1
		for {
			tok, err := lx.Next()
			if err != nil {
				t.Fatal(err)
			}
			if tok.Kind == EOF {
				return
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("lexing %d operators allocates %.1f times per pass, want 0", len(operatorSpellings), allocs)
	}
}

func TestLexNumbers(t *testing.T) {
	toks, err := LexAll("t.c", "0 123 0xff 0X10 'a' '\\n' '\\x41' '\\0'")
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{0, 123, 255, 16, 'a', '\n', 0x41, 0}
	for i, w := range want {
		if toks[i].Kind != INT || toks[i].Val != w {
			t.Fatalf("literal %d = %v, want %d", i, toks[i], w)
		}
	}
}

func TestLexStrings(t *testing.T) {
	toks, err := LexAll("t.c", `"hello\n" "a\"b" "\x41BC" ""`)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"hello\n", `a"b`, "ABC", ""}
	for i, w := range want {
		if toks[i].Kind != STRING || toks[i].Text != w {
			t.Fatalf("string %d = %q, want %q", i, toks[i].Text, w)
		}
	}
}

func TestLexComments(t *testing.T) {
	src := `
// line comment with int keywords
int /* block
spanning lines */ x;
`
	toks, err := LexAll("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	want := []Kind{KwInt, IDENT, Semi, EOF}
	got := kinds(toks)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d = %s, want %s (%v)", i, got[i], want[i], got)
		}
	}
	// Line numbers must account for the comment lines.
	if toks[0].Line != 3 {
		t.Fatalf("int on line %d, want 3", toks[0].Line)
	}
	if toks[1].Line != 4 {
		t.Fatalf("x on line %d, want 4", toks[1].Line)
	}
}

func TestLexErrors(t *testing.T) {
	cases := []string{
		"@",
		`"unterminated`,
		"'a",
		"/* unterminated",
		"123abc",
		`"bad \q escape"`,
	}
	for _, src := range cases {
		if _, err := LexAll("t.c", src); err == nil {
			t.Errorf("LexAll(%q) succeeded, want error", src)
		}
	}
}

func TestErrorMessageHasPosition(t *testing.T) {
	cases := []struct{ src, want string }{
		{"\n\n@", `file.c:3: unexpected character "@"`},
		{"a +\n  $", `file.c:2: unexpected character "$"`},
		{"x;\n\n/* c\n */ #", `file.c:4: unexpected character "#"`},
		{"a `", "file.c:1: unexpected character \"`\""},
	}
	for _, tc := range cases {
		_, err := LexAll("file.c", tc.src)
		if err == nil {
			t.Errorf("LexAll(%q): no error", tc.src)
			continue
		}
		if got := err.Error(); got != tc.want {
			t.Errorf("LexAll(%q) error = %q, want %q", tc.src, got, tc.want)
		}
	}
}
