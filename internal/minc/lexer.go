package minc

import (
	"fmt"
	"strings"
)

// Error is a front-end diagnostic with a source position.
type Error struct {
	File string
	Line int32
	Msg  string
}

func (e *Error) Error() string {
	return fmt.Sprintf("%s:%d: %s", e.File, e.Line, e.Msg)
}

// Lexer turns MinC source into tokens. Comments (// and /* */) are skipped.
type Lexer struct {
	file string
	src  string
	pos  int
	line int32
}

// NewLexer creates a lexer over src; file names diagnostics.
func NewLexer(file, src string) *Lexer {
	return &Lexer{file: file, src: src, line: 1}
}

func (lx *Lexer) errf(format string, args ...interface{}) error {
	return &Error{File: lx.file, Line: lx.line, Msg: fmt.Sprintf(format, args...)}
}

func (lx *Lexer) peek() byte {
	if lx.pos < len(lx.src) {
		return lx.src[lx.pos]
	}
	return 0
}

func (lx *Lexer) peek2() byte {
	if lx.pos+1 < len(lx.src) {
		return lx.src[lx.pos+1]
	}
	return 0
}

func (lx *Lexer) advance() byte {
	c := lx.src[lx.pos]
	lx.pos++
	if c == '\n' {
		lx.line++
	}
	return c
}

func (lx *Lexer) skipSpace() error {
	for lx.pos < len(lx.src) {
		c := lx.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.advance()
		case c == '/' && lx.peek2() == '/':
			for lx.pos < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		case c == '/' && lx.peek2() == '*':
			lx.advance()
			lx.advance()
			for {
				if lx.pos >= len(lx.src) {
					return lx.errf("unterminated block comment")
				}
				if lx.peek() == '*' && lx.peek2() == '/' {
					lx.advance()
					lx.advance()
					break
				}
				lx.advance()
			}
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdent(c byte) bool { return isIdentStart(c) || isDigit(c) }

// Next returns the next token.
func (lx *Lexer) Next() (Token, error) {
	if err := lx.skipSpace(); err != nil {
		return Token{}, err
	}
	line := lx.line
	if lx.pos >= len(lx.src) {
		return Token{Kind: EOF, Line: line}, nil
	}
	c := lx.peek()
	switch {
	case isIdentStart(c):
		start := lx.pos
		for lx.pos < len(lx.src) && isIdent(lx.peek()) {
			lx.advance()
		}
		word := lx.src[start:lx.pos]
		if k, ok := keywords[word]; ok {
			return Token{Kind: k, Text: word, Line: line}, nil
		}
		return Token{Kind: IDENT, Text: word, Line: line}, nil
	case isDigit(c):
		return lx.lexNumber(line)
	case c == '\'':
		return lx.lexCharLit(line)
	case c == '"':
		return lx.lexString(line)
	}
	return lx.lexOperator(line)
}

func (lx *Lexer) lexNumber(line int32) (Token, error) {
	start := lx.pos
	if lx.peek() == '0' && (lx.peek2() == 'x' || lx.peek2() == 'X') {
		lx.advance()
		lx.advance()
		hexStart := lx.pos
		var v uint64
		for lx.pos < len(lx.src) {
			c := lx.peek()
			var d uint64
			switch {
			case isDigit(c):
				d = uint64(c - '0')
			case c >= 'a' && c <= 'f':
				d = uint64(c-'a') + 10
			case c >= 'A' && c <= 'F':
				d = uint64(c-'A') + 10
			default:
				goto done
			}
			v = v*16 + d
			lx.advance()
		}
	done:
		if lx.pos == hexStart {
			return Token{}, lx.errf("malformed hex literal")
		}
		return Token{Kind: INT, Val: int64(v), Line: line}, nil
	}
	var v uint64
	for lx.pos < len(lx.src) && isDigit(lx.peek()) {
		v = v*10 + uint64(lx.advance()-'0')
	}
	if lx.pos < len(lx.src) && isIdentStart(lx.peek()) {
		return Token{}, lx.errf("malformed number %q", lx.src[start:lx.pos+1])
	}
	return Token{Kind: INT, Val: int64(v), Line: line}, nil
}

func (lx *Lexer) escape() (byte, error) {
	if lx.pos >= len(lx.src) {
		return 0, lx.errf("unterminated escape")
	}
	c := lx.advance()
	switch c {
	case 'n':
		return '\n', nil
	case 't':
		return '\t', nil
	case 'r':
		return '\r', nil
	case '0':
		return 0, nil
	case '\\':
		return '\\', nil
	case '\'':
		return '\'', nil
	case '"':
		return '"', nil
	case 'x':
		var v byte
		n := 0
		for n < 2 && lx.pos < len(lx.src) {
			c := lx.peek()
			switch {
			case isDigit(c):
				v = v*16 + (c - '0')
			case c >= 'a' && c <= 'f':
				v = v*16 + (c - 'a') + 10
			case c >= 'A' && c <= 'F':
				v = v*16 + (c - 'A') + 10
			default:
				if n == 0 {
					return 0, lx.errf("malformed \\x escape")
				}
				return v, nil
			}
			lx.advance()
			n++
		}
		return v, nil
	}
	return 0, lx.errf("unknown escape \\%c", c)
}

func (lx *Lexer) lexCharLit(line int32) (Token, error) {
	lx.advance() // opening '
	if lx.pos >= len(lx.src) {
		return Token{}, lx.errf("unterminated char literal")
	}
	var v byte
	c := lx.advance()
	if c == '\\' {
		e, err := lx.escape()
		if err != nil {
			return Token{}, err
		}
		v = e
	} else {
		v = c
	}
	if lx.pos >= len(lx.src) || lx.advance() != '\'' {
		return Token{}, lx.errf("unterminated char literal")
	}
	return Token{Kind: INT, Val: int64(v), Line: line}, nil
}

func (lx *Lexer) lexString(line int32) (Token, error) {
	lx.advance() // opening "
	var sb strings.Builder
	for {
		if lx.pos >= len(lx.src) {
			return Token{}, lx.errf("unterminated string literal")
		}
		c := lx.advance()
		if c == '"' {
			break
		}
		if c == '\n' {
			return Token{}, lx.errf("newline in string literal")
		}
		if c == '\\' {
			e, err := lx.escape()
			if err != nil {
				return Token{}, err
			}
			sb.WriteByte(e)
			continue
		}
		sb.WriteByte(c)
	}
	return Token{Kind: STRING, Text: sb.String(), Line: line}, nil
}

// twoMap and oneMap spell the two- and one-character operators. They are
// built once: lexOperator runs for every operator token.
var (
	twoMap = map[string]Kind{
		"->": Arrow, "+=": PlusEq, "-=": MinusEq, "*=": StarEq,
		"/=": SlashEq, "%=": PercentEq, "&=": AmpEq, "|=": PipeEq,
		"^=": CaretEq, "<<": Shl, ">>": Shr, "==": EqEq, "!=": NotEq,
		"<=": LtEq, ">=": GtEq, "&&": AndAnd, "||": OrOr,
		"++": PlusPlus, "--": MinusMinus,
	}
	oneMap = map[byte]Kind{
		'(': LParen, ')': RParen, '{': LBrace, '}': RBrace,
		'[': LBracket, ']': RBracket, ';': Semi, ',': Comma, '.': Dot,
		'=': Assign, '+': Plus, '-': Minus, '*': Star, '/': Slash,
		'%': Percent, '&': Amp, '|': Pipe, '^': Caret, '~': Tilde,
		'!': Bang, '<': Lt, '>': Gt, '?': Question, ':': Colon,
	}
)

// lexOperator munches the longest operator at pos: three-character
// operators, then two-character ones, then one-character ones.
func (lx *Lexer) lexOperator(line int32) (Token, error) {
	three := ""
	if lx.pos+3 <= len(lx.src) {
		three = lx.src[lx.pos : lx.pos+3]
	}
	switch three {
	case "<<=":
		lx.pos += 3
		return Token{Kind: ShlEq, Line: line}, nil
	case ">>=":
		lx.pos += 3
		return Token{Kind: ShrEq, Line: line}, nil
	}
	two := ""
	if lx.pos+2 <= len(lx.src) {
		two = lx.src[lx.pos : lx.pos+2]
	}
	if k, ok := twoMap[two]; ok {
		lx.pos += 2
		return Token{Kind: k, Line: line}, nil
	}
	c := lx.peek()
	if k, ok := oneMap[c]; ok {
		lx.advance()
		return Token{Kind: k, Line: line}, nil
	}
	return Token{}, lx.errf("unexpected character %q", string(c))
}

// LexAll tokenizes the whole input. The token slice is sized once from the
// source length, so appending rarely grows it.
func LexAll(file, src string) ([]Token, error) {
	lx := NewLexer(file, src)
	out := make([]Token, 0, len(src)/4+1)
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Kind == EOF {
			return out, nil
		}
	}
}
