package vm

import (
	"fmt"
	"strings"

	"closurex/internal/ir"
)

// Address-space map. Segments are deliberately far apart so the sanitizer
// can classify any address by range.
const (
	// GlobalsBase is where the first section is placed (above the null
	// page with slack, like a non-PIE text/data segment).
	GlobalsBase uint64 = 0x0001_0000
	// TextBase is where the simulated program image (text + static data
	// resident pages, sized like Table 4's executables) is materialized.
	// Fresh-process execution re-materializes it per test case; a
	// forkserver copies its page-table entries per fork; ClosureX never
	// touches it between test cases — which is precisely the
	// test-case-invariant state the paper's insight is about.
	TextBase uint64 = 0x0200_0000
	// HeapBase / HeapEnd bound the malloc arena (32 MiB).
	HeapBase uint64 = 0x0400_0000
	HeapEnd  uint64 = 0x0600_0000
	// StackBase / StackEnd bound the frame area for addressable locals
	// (8 MiB, matching a default ulimit -s).
	StackBase uint64 = 0x0800_0000
	StackEnd  uint64 = 0x0880_0000
)

// Section is one contiguous region of the globals image, named after its
// linker section. The ClosureX harness locates closure_global_section
// through this table — the stand-in for parsing the ELF with readelf.
type Section struct {
	Name string
	Addr uint64
	Size uint64
}

// Layout is the loaded image of a module's globals: every global gets an
// address, grouped by section.
type Layout struct {
	Sections   []Section
	GlobalAddr []uint64 // indexed like Module.Globals
	End        uint64   // first address past the globals image
}

// sectionRank fixes the on-image order: read-only data first, then plain
// data, then the ClosureX section, then anything else in name order.
func sectionRank(name string) int {
	switch name {
	case ir.SectionRodata:
		return 0
	case ir.SectionData:
		return 1
	case ir.SectionClosure:
		return 2
	}
	return 3
}

// NewLayout assigns addresses to every global in m. Globals keep their
// relative order within a section; each global is aligned to 8 bytes and
// sections to 16.
func NewLayout(m *ir.Module) *Layout {
	l := &Layout{GlobalAddr: make([]uint64, len(m.Globals))}

	names := make([]string, 0, 4)
	seen := map[string]bool{}
	for _, g := range m.Globals {
		if !seen[g.Section] {
			seen[g.Section] = true
			names = append(names, g.Section)
		}
	}
	// Stable order: by rank, then name.
	for i := 1; i < len(names); i++ {
		for j := i; j > 0; j-- {
			a, b := names[j-1], names[j]
			if sectionRank(a) > sectionRank(b) ||
				(sectionRank(a) == sectionRank(b) && strings.Compare(a, b) > 0) {
				names[j-1], names[j] = b, a
			} else {
				break
			}
		}
	}

	addr := GlobalsBase
	for _, sec := range names {
		addr = (addr + 15) &^ 15
		start := addr
		for gi, g := range m.Globals {
			if g.Section != sec {
				continue
			}
			addr = (addr + 7) &^ 7
			l.GlobalAddr[gi] = addr
			addr += uint64(g.Size)
		}
		l.Sections = append(l.Sections, Section{Name: sec, Addr: start, Size: addr - start})
	}
	l.End = (addr + 15) &^ 15
	return l
}

// Section returns the named section.
func (l *Layout) Section(name string) (Section, bool) {
	for _, s := range l.Sections {
		if s.Name == name {
			return s, true
		}
	}
	return Section{}, false
}

// InRodata reports whether [addr, addr+n) intersects a read-only section.
func (l *Layout) InRodata(addr uint64, n int) bool {
	for _, s := range l.Sections {
		if s.Name != ir.SectionRodata {
			continue
		}
		if addr < s.Addr+s.Size && s.Addr < addr+uint64(n) {
			return true
		}
	}
	return false
}

// String renders the section table (the closurex-cc -sections view used to
// reproduce Figure 3).
func (l *Layout) String() string {
	var sb strings.Builder
	for _, s := range l.Sections {
		fmt.Fprintf(&sb, "%-24s addr=%#08x size=%6d\n", s.Name, s.Addr, s.Size)
	}
	return sb.String()
}
