// Package lower translates MinC ASTs into ClosureX IR — the analogue of
// clang emitting LLVM IR in the paper's toolchain. Typing is C-like and
// permissive: every scalar lives in a 64-bit register, chars are unsigned
// bytes truncated at stores, pointers scale arithmetic by element size, and
// const globals plus string literals are placed in .rodata so the
// GlobalPass has the same section picture Figure 3 shows.
package lower

import (
	"fmt"

	"closurex/internal/analysis"
	"closurex/internal/ir"
	"closurex/internal/minc"
)

// Compile parses, analyzes and lowers MinC source into a verified IR
// module. builtins names the runtime routines calls may resolve to.
func Compile(file, src string, builtins map[string]bool) (*ir.Module, error) {
	prog, err := minc.Parse(file, src)
	if err != nil {
		return nil, err
	}
	return CompileProgram(prog, builtins)
}

// CompileProgram analyzes and lowers an already parsed program, for callers
// that keep the AST (Compile without the parse).
func CompileProgram(prog *minc.Program, builtins map[string]bool) (*ir.Module, error) {
	info, err := minc.Analyze(prog)
	if err != nil {
		return nil, err
	}
	return Lower(info, builtins)
}

// Lower translates an analyzed program.
func Lower(info *minc.ProgramInfo, builtins map[string]bool) (*ir.Module, error) {
	l := &lowerer{
		info:     info,
		mod:      ir.NewModule(info.Prog.File),
		builtins: builtins,
		strIdx:   make(map[string]int),
		gblIdx:   make(map[string]int),
	}
	if err := l.lowerGlobals(); err != nil {
		return nil, err
	}
	for _, f := range info.Prog.Funcs {
		fn, err := l.lowerFunc(f)
		if err != nil {
			return nil, err
		}
		if err := l.mod.AddFunc(fn); err != nil {
			return nil, l.errf(f.Line, "%v", err)
		}
	}
	if err := analysis.VerifyStructure(l.mod, analysis.NewBuiltins(builtins)).Err(); err != nil {
		return nil, err
	}
	return l.mod, nil
}

type lowerer struct {
	info     *minc.ProgramInfo
	mod      *ir.Module
	builtins map[string]bool
	strIdx   map[string]int // string literal -> global index
	gblIdx   map[string]int // global name -> global index
}

func (l *lowerer) errf(line int32, format string, args ...interface{}) error {
	return &minc.Error{File: l.info.Prog.File, Line: line, Msg: fmt.Sprintf(format, args...)}
}

// ---- Globals ----

func (l *lowerer) lowerGlobals() error {
	for _, g := range l.info.Prog.Globals {
		init, err := l.globalInitBytes(g)
		if err != nil {
			return err
		}
		section := ir.SectionData
		if g.Const {
			section = ir.SectionRodata
		}
		idx := l.mod.AddGlobal(&ir.Global{
			Name:    g.Name,
			Size:    g.Type.Size(),
			Init:    init,
			Const:   g.Const,
			Section: section,
		})
		l.gblIdx[g.Name] = idx
	}
	return nil
}

func (l *lowerer) globalInitBytes(g *minc.GlobalDecl) ([]byte, error) {
	if g.Init == nil {
		return nil, nil
	}
	switch init := g.Init.(type) {
	case *minc.StrLit:
		return append([]byte(init.Val), 0), nil
	case *minc.InitList:
		elemSize := g.Type.Elem.Size()
		buf := make([]byte, int64(len(init.Elems))*elemSize)
		for i, e := range init.Elems {
			v, err := minc.EvalConst(e)
			if err != nil {
				return nil, l.errf(g.Line, "global %q: %v", g.Name, err)
			}
			putLE(buf[int64(i)*elemSize:], uint64(v), int(elemSize))
		}
		return buf, nil
	default:
		v, err := minc.EvalConst(g.Init)
		if err != nil {
			return nil, l.errf(g.Line, "global %q: %v", g.Name, err)
		}
		sz := g.Type.Size()
		buf := make([]byte, sz)
		putLE(buf, uint64(v), int(sz))
		return buf, nil
	}
}

func putLE(dst []byte, v uint64, n int) {
	for i := 0; i < n; i++ {
		dst[i] = byte(v >> (8 * i))
	}
}

// internString returns the global index of a rodata NUL-terminated copy of
// s, deduplicated.
func (l *lowerer) internString(s string) int {
	if idx, ok := l.strIdx[s]; ok {
		return idx
	}
	idx := l.mod.AddGlobal(&ir.Global{
		Name:    fmt.Sprintf(".str.%d", len(l.strIdx)),
		Size:    int64(len(s) + 1),
		Init:    append([]byte(s), 0),
		Const:   true,
		Section: ir.SectionRodata,
	})
	l.strIdx[s] = idx
	return idx
}

// ---- Function lowering ----

// local describes one resolved local variable.
type local struct {
	name    string
	ty      *minc.Type
	inFrame bool
	reg     int   // register-resident scalar
	off     int64 // frame offset when inFrame
}

type funcLower struct {
	l      *lowerer
	b      *ir.Builder
	decl   *minc.FuncDecl
	scopes []map[string]*local
	// addrTaken names locals that appear under & anywhere in the function
	// (conservatively by name), which forces frame residency.
	addrTaken map[string]bool
	breaks    []int
	conts     []int
}

func (l *lowerer) lowerFunc(decl *minc.FuncDecl) (*ir.Func, error) {
	fl := &funcLower{
		l:         l,
		b:         ir.NewBuilder(decl.Name, len(decl.Params)),
		decl:      decl,
		addrTaken: map[string]bool{},
	}
	collectAddrTaken(decl.Body, fl.addrTaken)
	fl.pushScope()
	// Bind parameters. Address-taken params are spilled to the frame.
	for i, p := range decl.Params {
		fl.b.SetPos(decl.Line)
		if fl.addrTaken[p.Name] {
			off := fl.b.Alloca(8)
			addr := fl.b.FrameAddr(off)
			fl.b.Store(addr, i, 0, p.Type.AccessSize())
			fl.define(&local{name: p.Name, ty: p.Type, inFrame: true, off: off})
			continue
		}
		if p.Type.Kind == minc.TChar {
			// Truncate to unsigned char at entry, as a call would.
			masked := fl.b.Bin(ir.And, i, fl.b.Const(0xff))
			fl.b.Mov(i, masked)
		}
		fl.define(&local{name: p.Name, ty: p.Type, reg: i})
	}
	if err := fl.stmt(decl.Body); err != nil {
		return nil, err
	}
	// Implicitly return 0 from any unterminated block (includes functions
	// falling off the end and synthesized join blocks).
	for _, blk := range fl.b.F.Blocks {
		if blk.Terminator() == nil {
			blk.Instrs = append(blk.Instrs, ir.Instr{Op: ir.OpRet, Dst: -1, A: -1, B: -1, Pos: decl.Line})
		}
	}
	fn, err := fl.b.Finish()
	if err != nil {
		return nil, l.errf(decl.Line, "%v", err)
	}
	return fn, nil
}

// collectAddrTaken records every identifier appearing under unary &.
func collectAddrTaken(s minc.Stmt, out map[string]bool) {
	var walkExpr func(e minc.Expr)
	walkExpr = func(e minc.Expr) {
		switch x := e.(type) {
		case *minc.Unary:
			if x.Op == minc.Amp {
				if id, ok := x.X.(*minc.Ident); ok {
					out[id.Name] = true
				}
			}
			walkExpr(x.X)
		case *minc.Binary:
			walkExpr(x.X)
			walkExpr(x.Y)
		case *minc.AssignExpr:
			walkExpr(x.LHS)
			walkExpr(x.RHS)
		case *minc.Cond:
			walkExpr(x.C)
			walkExpr(x.T)
			walkExpr(x.F)
		case *minc.IncDec:
			walkExpr(x.X)
		case *minc.Index:
			walkExpr(x.Base)
			walkExpr(x.Idx)
		case *minc.Member:
			walkExpr(x.Base)
		case *minc.Call:
			for _, a := range x.Args {
				walkExpr(a)
			}
		case *minc.CastExpr:
			walkExpr(x.X)
		}
	}
	var walk func(s minc.Stmt)
	walk = func(s minc.Stmt) {
		switch st := s.(type) {
		case *minc.BlockStmt:
			for _, s2 := range st.Stmts {
				walk(s2)
			}
		case *minc.VarDeclStmt:
			if st.Init != nil {
				walkExpr(st.Init)
			}
		case *minc.ExprStmt:
			walkExpr(st.X)
		case *minc.IfStmt:
			walkExpr(st.Cond)
			walk(st.Then)
			if st.Else != nil {
				walk(st.Else)
			}
		case *minc.WhileStmt:
			walkExpr(st.Cond)
			walk(st.Body)
		case *minc.DoWhileStmt:
			walk(st.Body)
			walkExpr(st.Cond)
		case *minc.SwitchStmt:
			walkExpr(st.Cond)
			for i := range st.Cases {
				for _, s2 := range st.Cases[i].Stmts {
					walk(s2)
				}
			}
		case *minc.ForStmt:
			if st.Init != nil {
				walk(st.Init)
			}
			if st.Cond != nil {
				walkExpr(st.Cond)
			}
			if st.Post != nil {
				walkExpr(st.Post)
			}
			walk(st.Body)
		case *minc.ReturnStmt:
			if st.X != nil {
				walkExpr(st.X)
			}
		}
	}
	walk(s)
}

func (fl *funcLower) pushScope() {
	fl.scopes = append(fl.scopes, map[string]*local{})
}

func (fl *funcLower) popScope() {
	fl.scopes = fl.scopes[:len(fl.scopes)-1]
}

func (fl *funcLower) define(lo *local) {
	fl.scopes[len(fl.scopes)-1][lo.name] = lo
}

func (fl *funcLower) lookup(name string) *local {
	for i := len(fl.scopes) - 1; i >= 0; i-- {
		if lo, ok := fl.scopes[i][name]; ok {
			return lo
		}
	}
	return nil
}

func (fl *funcLower) errf(line int32, format string, args ...interface{}) error {
	return fl.l.errf(line, format, args...)
}

// ---- Statements ----

func (fl *funcLower) stmt(s minc.Stmt) error {
	switch st := s.(type) {
	case *minc.BlockStmt:
		fl.pushScope()
		defer fl.popScope()
		for _, s2 := range st.Stmts {
			if fl.b.Terminated() {
				// Dead code after return/break; skip silently, as a real
				// compiler's unreachable-block elimination would.
				return nil
			}
			if err := fl.stmt(s2); err != nil {
				return err
			}
		}
		return nil
	case *minc.EmptyStmt:
		return nil
	case *minc.VarDeclStmt:
		return fl.varDecl(st)
	case *minc.ExprStmt:
		fl.b.SetPos(st.Line)
		_, err := fl.expr(st.X)
		return err
	case *minc.IfStmt:
		return fl.ifStmt(st)
	case *minc.WhileStmt:
		return fl.whileStmt(st)
	case *minc.DoWhileStmt:
		return fl.doWhileStmt(st)
	case *minc.ForStmt:
		return fl.forStmt(st)
	case *minc.SwitchStmt:
		return fl.switchStmt(st)
	case *minc.ReturnStmt:
		fl.b.SetPos(st.Line)
		if st.X == nil {
			fl.b.Ret(-1)
			return nil
		}
		v, err := fl.exprScalar(st.X)
		if err != nil {
			return err
		}
		fl.b.Ret(v.reg)
		return nil
	case *minc.BreakStmt:
		if len(fl.breaks) == 0 {
			return fl.errf(st.Line, "break outside loop")
		}
		fl.b.SetPos(st.Line)
		fl.b.Br(fl.breaks[len(fl.breaks)-1])
		return nil
	case *minc.ContinueStmt:
		if len(fl.conts) == 0 {
			return fl.errf(st.Line, "continue outside loop")
		}
		fl.b.SetPos(st.Line)
		fl.b.Br(fl.conts[len(fl.conts)-1])
		return nil
	}
	return fmt.Errorf("lower: unknown statement %T", s)
}

func (fl *funcLower) varDecl(st *minc.VarDeclStmt) error {
	fl.b.SetPos(st.Line)
	if cur := fl.scopes[len(fl.scopes)-1][st.Name]; cur != nil {
		return fl.errf(st.Line, "variable %q redeclared in this scope", st.Name)
	}
	if st.Type.Kind == minc.TArray && st.Type.ArrayLen <= 0 {
		return fl.errf(st.Line, "array %q has non-positive length", st.Name)
	}
	needsFrame := !st.Type.IsScalar() || fl.addrTaken[st.Name]
	if needsFrame {
		off := fl.b.Alloca(st.Type.Size())
		lo := &local{name: st.Name, ty: st.Type, inFrame: true, off: off}
		fl.define(lo)
		if st.Init != nil {
			if !st.Type.IsScalar() {
				return fl.errf(st.Line, "initializer on non-scalar local %q", st.Name)
			}
			v, err := fl.exprScalar(st.Init)
			if err != nil {
				return err
			}
			addr := fl.b.FrameAddr(off)
			fl.b.Store(addr, v.reg, 0, st.Type.AccessSize())
		}
		return nil
	}
	reg := fl.b.NewReg()
	lo := &local{name: st.Name, ty: st.Type, reg: reg}
	fl.define(lo)
	if st.Init != nil {
		v, err := fl.exprScalar(st.Init)
		if err != nil {
			return err
		}
		fl.storeToReg(lo, v.reg)
		return nil
	}
	// Deterministic zero for uninitialized scalars (the frame equivalent
	// is zeroed by the VM).
	fl.b.Mov(reg, fl.b.Const(0))
	return nil
}

func (fl *funcLower) ifStmt(st *minc.IfStmt) error {
	fl.b.SetPos(st.Line)
	cond, err := fl.exprScalar(st.Cond)
	if err != nil {
		return err
	}
	thenB := fl.b.NewBlock()
	elseB := fl.b.NewBlock()
	joinB := fl.b.NewBlock()
	fl.b.CondBr(cond.reg, thenB, elseB)
	fl.b.SetBlock(thenB)
	if err := fl.stmt(st.Then); err != nil {
		return err
	}
	if !fl.b.Terminated() {
		fl.b.Br(joinB)
	}
	fl.b.SetBlock(elseB)
	if st.Else != nil {
		if err := fl.stmt(st.Else); err != nil {
			return err
		}
	}
	if !fl.b.Terminated() {
		fl.b.Br(joinB)
	}
	fl.b.SetBlock(joinB)
	return nil
}

func (fl *funcLower) whileStmt(st *minc.WhileStmt) error {
	header := fl.b.NewBlock()
	body := fl.b.NewBlock()
	exit := fl.b.NewBlock()
	fl.b.SetPos(st.Line)
	fl.b.Br(header)
	fl.b.SetBlock(header)
	cond, err := fl.exprScalar(st.Cond)
	if err != nil {
		return err
	}
	fl.b.CondBr(cond.reg, body, exit)
	fl.b.SetBlock(body)
	fl.breaks = append(fl.breaks, exit)
	fl.conts = append(fl.conts, header)
	err = fl.stmt(st.Body)
	fl.breaks = fl.breaks[:len(fl.breaks)-1]
	fl.conts = fl.conts[:len(fl.conts)-1]
	if err != nil {
		return err
	}
	if !fl.b.Terminated() {
		fl.b.Br(header)
	}
	fl.b.SetBlock(exit)
	return nil
}

func (fl *funcLower) doWhileStmt(st *minc.DoWhileStmt) error {
	body := fl.b.NewBlock()
	condB := fl.b.NewBlock()
	exit := fl.b.NewBlock()
	fl.b.SetPos(st.Line)
	fl.b.Br(body)
	fl.b.SetBlock(body)
	fl.breaks = append(fl.breaks, exit)
	fl.conts = append(fl.conts, condB)
	err := fl.stmt(st.Body)
	fl.breaks = fl.breaks[:len(fl.breaks)-1]
	fl.conts = fl.conts[:len(fl.conts)-1]
	if err != nil {
		return err
	}
	if !fl.b.Terminated() {
		fl.b.Br(condB)
	}
	fl.b.SetBlock(condB)
	cond, err := fl.exprScalar(st.Cond)
	if err != nil {
		return err
	}
	fl.b.CondBr(cond.reg, body, exit)
	fl.b.SetBlock(exit)
	return nil
}

// switchStmt lowers a C switch to a comparison chain dispatching into one
// body block per arm, with fallthrough between consecutive arms and break
// targeting the exit block. continue inside a switch still refers to the
// enclosing loop, as in C.
func (fl *funcLower) switchStmt(st *minc.SwitchStmt) error {
	fl.b.SetPos(st.Line)
	v, err := fl.exprScalar(st.Cond)
	if err != nil {
		return err
	}
	exit := fl.b.NewBlock()
	bodies := make([]int, len(st.Cases))
	for i := range st.Cases {
		bodies[i] = fl.b.NewBlock()
	}
	// Dispatch chain.
	defaultTarget := exit
	for i := range st.Cases {
		arm := &st.Cases[i]
		if arm.Default {
			defaultTarget = bodies[i]
		}
		for _, val := range arm.Vals {
			cv, err := minc.EvalConst(val)
			if err != nil {
				return fl.errf(arm.Line, "case label: %v", err)
			}
			cmp := fl.b.Bin(ir.Eq, v.reg, fl.b.Const(cv))
			next := fl.b.NewBlock()
			fl.b.CondBr(cmp, bodies[i], next)
			fl.b.SetBlock(next)
		}
	}
	fl.b.Br(defaultTarget)
	// Arm bodies with fallthrough.
	fl.breaks = append(fl.breaks, exit)
	for i := range st.Cases {
		fl.b.SetBlock(bodies[i])
		fl.pushScope()
		for _, s := range st.Cases[i].Stmts {
			if fl.b.Terminated() {
				break
			}
			if err := fl.stmt(s); err != nil {
				fl.popScope()
				fl.breaks = fl.breaks[:len(fl.breaks)-1]
				return err
			}
		}
		fl.popScope()
		if !fl.b.Terminated() {
			if i+1 < len(st.Cases) {
				fl.b.Br(bodies[i+1]) // fallthrough
			} else {
				fl.b.Br(exit)
			}
		}
	}
	fl.breaks = fl.breaks[:len(fl.breaks)-1]
	fl.b.SetBlock(exit)
	return nil
}

func (fl *funcLower) forStmt(st *minc.ForStmt) error {
	fl.pushScope()
	defer fl.popScope()
	if st.Init != nil {
		if err := fl.stmt(st.Init); err != nil {
			return err
		}
	}
	header := fl.b.NewBlock()
	body := fl.b.NewBlock()
	post := fl.b.NewBlock()
	exit := fl.b.NewBlock()
	fl.b.SetPos(st.Line)
	fl.b.Br(header)
	fl.b.SetBlock(header)
	if st.Cond != nil {
		cond, err := fl.exprScalar(st.Cond)
		if err != nil {
			return err
		}
		fl.b.CondBr(cond.reg, body, exit)
	} else {
		fl.b.Br(body)
	}
	fl.b.SetBlock(body)
	fl.breaks = append(fl.breaks, exit)
	fl.conts = append(fl.conts, post)
	err := fl.stmt(st.Body)
	fl.breaks = fl.breaks[:len(fl.breaks)-1]
	fl.conts = fl.conts[:len(fl.conts)-1]
	if err != nil {
		return err
	}
	if !fl.b.Terminated() {
		fl.b.Br(post)
	}
	fl.b.SetBlock(post)
	if st.Post != nil {
		if _, err := fl.expr(st.Post); err != nil {
			return err
		}
	}
	fl.b.Br(header)
	fl.b.SetBlock(exit)
	return nil
}
