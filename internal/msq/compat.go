package msq

import "fmt"

// The symbols in this file are kept only because the benchmark module
// (bench/) names them. Nothing else in the module may use them: `make
// compat` fails on any other file that does. ROADMAP item 1a deletes this
// file: its item-2 line WithConcurrency, its item-8 line the layouts and
// Options.Layout.

// Layout named a page representation when there were two. Pages have one
// now, their items' vectors, and nothing reads Options.Layout.
//
// Deprecated: removed by ROADMAP item 1a (item 8).
type Layout int

// The page representations there were.
//
// Deprecated: removed by ROADMAP item 1a (item 8).
const (
	LayoutAoS Layout = iota
	LayoutSoA
)

// String names the layout.
func (l Layout) String() string {
	switch l {
	case LayoutAoS:
		return "aos"
	case LayoutSoA:
		return "soa"
	default:
		return fmt.Sprintf("layout(%d)", int(l))
	}
}

// WithConcurrency returns p and ignores n: every call runs one page loop.
//
// Deprecated: there is no intra-server pipeline to widen; parallelism is
// across servers (internal/parallel). Removed by ROADMAP item 1a (item 2).
func (p *Processor) WithConcurrency(n int) *Processor { return p }
