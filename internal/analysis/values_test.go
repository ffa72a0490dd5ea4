package analysis

import (
	"testing"

	"closurex/internal/ir"
)

func TestEvalBinRules(t *testing.T) {
	rng := RangeValue
	c := func(v int64) Value { return RangeValue(v, v) }
	frame := Value{Kind: FrameOff, Lo: 8, Hi: 8}
	global := Value{Kind: GlobalOff, Global: 1}
	heap := Value{Kind: HeapOff, Size: 16, Def: 3}
	param := Value{Kind: ParamOff, Param: 2}
	wide := Value{Kind: Range, Lo: 0, Hi: ValueClamp + 1} // beyond the clamp
	for _, tc := range []struct {
		name string
		op   ir.BinOp
		l, r Value
		want Value
	}{
		{"add ranges", ir.Add, rng(1, 2), rng(10, 20), rng(11, 22)},
		{"add past clamp", ir.Add, c(ValueClamp), c(1), TopValue},
		{"frame + range", ir.Add, frame, rng(0, 4), Value{Kind: FrameOff, Lo: 8, Hi: 12}},
		{"range + global", ir.Add, rng(-1, 1), global, Value{Kind: GlobalOff, Global: 1, Lo: -1, Hi: 1}},
		{"heap + range keeps size and site", ir.Add, heap, c(4), Value{Kind: HeapOff, Size: 16, Def: 3, Lo: 4, Hi: 4}},
		{"param + range", ir.Add, param, c(8), Value{Kind: ParamOff, Param: 2, Lo: 8, Hi: 8}},
		{"region + top", ir.Add, frame, TopValue, TopValue},
		{"region + region", ir.Add, frame, heap, TopValue},
		{"region offset past clamp", ir.Add, frame, c(ValueClamp), TopValue},
		{"sub ranges", ir.Sub, rng(10, 20), rng(1, 2), rng(8, 19)},
		{"region - range", ir.Sub, frame, rng(0, 4), Value{Kind: FrameOff, Lo: 4, Hi: 8}},
		{"range - region", ir.Sub, c(4), frame, TopValue},
		{"mul mixed signs", ir.Mul, rng(-2, 3), rng(4, 5), rng(-10, 15)},
		{"mul product past clamp", ir.Mul, c(1 << 30), c(1 << 30), TopValue},
		{"mul left operand beyond clamp", ir.Mul, wide, c(1), TopValue},
		{"mul right operand beyond clamp", ir.Mul, c(1), wide, TopValue},
		{"shl by constant", ir.Shl, rng(1, 3), c(4), rng(16, 48)},
		{"shl by 31", ir.Shl, c(1), c(31), c(1 << 31)},
		{"shl by 32", ir.Shl, c(1), c(32), TopValue},
		{"shl by negative", ir.Shl, c(1), c(-1), TopValue},
		{"shl by range", ir.Shl, c(1), rng(1, 2), TopValue},
		{"and right mask", ir.And, TopValue, c(7), rng(0, 7)},
		{"and left mask", ir.And, c(255), TopValue, rng(0, 255)},
		{"and negative mask", ir.And, TopValue, c(-8), TopValue},
		{"or non-negative", ir.Or, rng(0, 3), rng(1, 4), rng(0, 7)},
		{"xor non-negative", ir.Xor, rng(0, 3), rng(0, 4), rng(0, 7)},
		{"or possibly negative", ir.Or, rng(-1, 3), c(1), TopValue},
		{"shr non-negative", ir.Shr, rng(16, 255), c(4), rng(1, 15)},
		{"shr possibly negative", ir.Shr, rng(-16, 255), c(4), TopValue},
		{"shr by 64", ir.Shr, c(1), c(64), TopValue},
		{"rem non-negative", ir.Rem, rng(0, 1000), c(10), rng(0, 9)},
		{"rem possibly negative", ir.Rem, rng(-5, 1000), c(10), TopValue},
		{"rem by zero", ir.Rem, rng(0, 5), c(0), TopValue},
		{"rem by range", ir.Rem, rng(0, 5), rng(1, 2), TopValue},
		{"compare", ir.Lt, TopValue, TopValue, rng(0, 1)},
		{"unsigned compare", ir.Uge, frame, heap, rng(0, 1)},
		{"div has no rule", ir.Div, rng(0, 10), c(2), TopValue},
	} {
		if got := EvalBin(tc.op, tc.l, tc.r); got != tc.want {
			t.Errorf("%s: EvalBin(%v, %+v, %+v) = %+v, want %+v", tc.name, tc.op, tc.l, tc.r, got, tc.want)
		}
	}
}

// byteIndexedStore builds f(p): buf[*(u8*)p] = 0 over a 256-byte frame
// buffer — a byte load feeding an index. It returns the module, the
// function and the store's position.
func byteIndexedStore(t *testing.T) (*ir.Module, *ir.Func, int, int) {
	t.Helper()
	b := ir.NewBuilder("f", 1)
	buf := b.FrameAddr(b.Alloca(256))
	idx := b.Load(0, 0, 1)
	addr := b.Bin(ir.Add, buf, idx)
	zero := b.Const(0)
	b.Store(addr, zero, 0, 1)
	b.Ret(zero)
	f, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return &ir.Module{Funcs: []*ir.Func{f}}, f, 0, len(f.Blocks[0].Instrs) - 2
}

func TestValuesNarrowLoadBoundsIndex(t *testing.T) {
	m, f, bi, store := byteIndexedStore(t)
	in := &f.Blocks[bi].Instrs[store]
	addr := f.Blocks[bi].Instrs[store-2] // the add feeding the store

	vs := NewValues(m, f)
	if got, want := vs.At(bi, store-2, addr.B), RangeValue(0, 255); got != want {
		t.Errorf("byte load index = %+v, want %+v", got, want)
	}
	if got, want := vs.At(bi, store, in.A), (Value{Kind: FrameOff, Lo: 0, Hi: 255}); got != want {
		t.Errorf("store address = %+v, want %+v", got, want)
	}

	vs = NewValues(m, f)
	vs.NoNarrowLoads = true
	if got := vs.At(bi, store-2, addr.B); got != TopValue {
		t.Errorf("byte load index with NoNarrowLoads = %+v, want Top", got)
	}
	if got := vs.At(bi, store, in.A); got != TopValue {
		t.Errorf("store address with NoNarrowLoads = %+v, want Top", got)
	}
}

func TestValuesAllocationsAndReturns(t *testing.T) {
	b := ir.NewBuilder("f", 1) // r0: a caller-controlled size
	n := b.Const(4)
	e := b.Const(8)
	cp := b.Call("closurex_calloc", n, e)
	mp := b.Call("malloc", 0)
	rp := b.Call("realloc", cp, e)
	r := b.Call("g")
	b.Ret(r)
	f, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	m := &ir.Module{Funcs: []*ir.Func{f}}
	vs := NewValues(m, f)
	ret := len(f.Blocks[0].Instrs) - 1
	site := func(r int) int { return vs.RD.UseSite(0, ret, r) }
	for _, tc := range []struct {
		reg  int
		size int64
	}{{cp, 32}, {mp, 0}, {rp, 0}} {
		got := vs.At(0, ret, tc.reg)
		if got.Kind != HeapOff || got.Size != tc.size || got.Def != site(tc.reg) {
			t.Errorf("r%d = %+v, want HeapOff size %d def %d", tc.reg, got, tc.size, site(tc.reg))
		}
	}
	if got := vs.At(0, ret, r); got != TopValue {
		t.Errorf("call without a Returns hook = %+v, want Top", got)
	}
	vs = NewValues(m, f)
	vs.Returns = func(string) Value { return RangeValue(0, 9) }
	if got := vs.At(0, ret, r); got != RangeValue(0, 9) {
		t.Errorf("call through the Returns hook = %+v, want [0,9]", got)
	}
}
