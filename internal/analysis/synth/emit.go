package synth

// Deterministic MinC emission. The synthesized program is the original
// source with its `main` removed, followed by a generated closurex_init
// (global preconditions) and a generated dispatching main: read up to
// DefaultBufCap input bytes into a frame-local buffer, select an arm on byte 0,
// decode each scalar parameter from fixed header offsets, clamp length
// parameters into the payload, and call the arm. Every buffer access the
// emitter writes is at a constant offset into the local array so the
// sanitize interval domain can prove it in-bounds during certification.
// Generated locals carry the sx_ prefix to stay clear of target
// identifiers.

import (
	"fmt"
	"strings"

	"closurex/internal/analysis"
)

// emitSource renders the synthesized program.
func emitSource(src string, pl *planData) string {
	var b strings.Builder
	b.WriteString(strings.TrimRight(stripMain(src), " \t\n"))
	b.WriteString("\n\n/* --- synthesized by analysis/synth; certified, do not hand-edit --- */\n")

	b.WriteString("void " + analysis.InitFunc + "(void) {\n")
	for _, g := range pl.preGlobals {
		fmt.Fprintf(&b, "    %s = 1;\n", g)
	}
	if len(pl.preGlobals) == 0 {
		b.WriteString("    return;\n")
	}
	b.WriteString("}\n\n")

	b.WriteString("int main(void) {\n")
	fmt.Fprintf(&b, "    char sx_buf[%d];\n", DefaultBufCap)
	if plansNeedScratch(pl) {
		b.WriteString("    int sx_scr = 0;\n")
	}
	b.WriteString("    int sx_ret = 0;\n")
	b.WriteString("    " + analysis.InitFunc + "();\n")
	b.WriteString("    int sx_f = fopen(\"/input\", \"r\");\n")
	b.WriteString("    if (sx_f == 0) { return 0; }\n")
	fmt.Fprintf(&b, "    int sx_n = fread(sx_buf, 1, %d, sx_f);\n", DefaultBufCap)
	b.WriteString("    fclose(sx_f);\n")
	b.WriteString("    if (sx_n < 1) { return 0; }\n")
	fmt.Fprintf(&b, "    int sx_sel = sx_buf[0] %% %d;\n", len(pl.arms))
	fmt.Fprintf(&b, "    int sx_pay = sx_n - %d;\n", pl.hdr)
	b.WriteString("    if (sx_pay < 0) { sx_pay = 0; }\n")
	for i := range pl.arms {
		emitArm(&b, &pl.arms[i], i, pl)
	}
	b.WriteString("    return sx_ret;\n")
	b.WriteString("}\n")
	return b.String()
}

func plansNeedScratch(pl *planData) bool {
	for _, a := range pl.arms {
		for _, p := range a.Params {
			if p.Kind == KindScratch {
				return true
			}
		}
	}
	return false
}

// emitArm renders one dispatch arm: scalar decodes, length clamps, the
// call, and the return-value sink when the arm returns a scalar.
func emitArm(b *strings.Builder, arm *Arm, idx int, pl *planData) {
	fmt.Fprintf(b, "    if (sx_sel == %d) {\n", idx)
	args := make([]string, 0, len(arm.Params))
	for pi, p := range arm.Params {
		switch p.Kind {
		case KindByte:
			fmt.Fprintf(b, "        int sx_a%d = sx_buf[%d];\n", pi, p.Off)
			args = append(args, fmt.Sprintf("sx_a%d", pi))
		case KindInt, KindLen:
			fmt.Fprintf(b, "        int sx_a%d = %s;\n", pi, decode4(p.Off))
			if p.Kind == KindLen {
				fmt.Fprintf(b, "        if (sx_a%d < 0) { sx_a%d = 0; }\n", pi, pi)
				fmt.Fprintf(b, "        if (sx_a%d > sx_pay) { sx_a%d = sx_pay; }\n", pi, pi)
			}
			args = append(args, fmt.Sprintf("sx_a%d", pi))
		case KindBuf:
			args = append(args, fmt.Sprintf("sx_buf + %d", pl.hdr))
		case KindScratch:
			args = append(args, "&sx_scr")
		}
	}
	call := fmt.Sprintf("%s(%s)", arm.Func, strings.Join(args, ", "))
	if arm.Ret == "int" || arm.Ret == "char" {
		fmt.Fprintf(b, "        sx_ret = %s;\n", call)
	} else {
		fmt.Fprintf(b, "        %s;\n", call)
	}
	b.WriteString("    }\n")
}

// decode4 renders a 4-byte little-endian decode from constant offsets.
func decode4(off int) string {
	return fmt.Sprintf("sx_buf[%d] | (sx_buf[%d] << 8) | (sx_buf[%d] << 16) | (sx_buf[%d] << 24)",
		off, off+1, off+2, off+3)
}

// stripMain removes the `main` function definition from MinC source with a
// comment- and literal-aware brace scanner. The emitter appends its own
// main, so a leftover would be a redefinition error at certification.
func stripMain(src string) string {
	start := mainStart(src)
	if start < 0 {
		return src
	}
	// Walk to the opening brace, then to its match.
	i := start
	for i < len(src) && src[i] != '{' {
		i++
	}
	depth := 0
	for i < len(src) {
		c := src[i]
		switch c {
		case '{':
			depth++
		case '}':
			depth--
			if depth == 0 {
				return src[:start] + src[i+1:]
			}
		case '"', '\'':
			i = skipLiteral(src, i)
			continue
		case '/':
			if j := skipComment(src, i); j > i {
				i = j
				continue
			}
		}
		i++
	}
	return src
}

// mainStart locates the `int main` token pair outside comments/literals.
func mainStart(src string) int {
	i := 0
	for i < len(src) {
		switch src[i] {
		case '"', '\'':
			i = skipLiteral(src, i)
			continue
		case '/':
			if j := skipComment(src, i); j > i {
				i = j
				continue
			}
		}
		if strings.HasPrefix(src[i:], "int") && !identChar(byteAt(src, i-1)) {
			j := i + 3
			for j < len(src) && (src[j] == ' ' || src[j] == '\t' || src[j] == '\n') {
				j++
			}
			if strings.HasPrefix(src[j:], "main") && !identChar(byteAt(src, j+4)) {
				return i
			}
		}
		i++
	}
	return -1
}

func byteAt(s string, i int) byte {
	if i < 0 || i >= len(s) {
		return 0
	}
	return s[i]
}

func identChar(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

// skipLiteral advances past a string or char literal starting at i.
func skipLiteral(src string, i int) int {
	q := src[i]
	i++
	for i < len(src) {
		if src[i] == '\\' {
			i += 2
			continue
		}
		if src[i] == q {
			return i + 1
		}
		i++
	}
	return i
}

// skipComment advances past // or /* */ comments starting at i, or returns
// i when no comment starts there.
func skipComment(src string, i int) int {
	if i+1 >= len(src) {
		return i
	}
	switch src[i+1] {
	case '/':
		for i < len(src) && src[i] != '\n' {
			i++
		}
		return i
	case '*':
		j := strings.Index(src[i+2:], "*/")
		if j < 0 {
			return len(src)
		}
		return i + 2 + j + 2
	}
	return i
}
