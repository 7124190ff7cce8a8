// Package cfg provides control-flow analysis over RTL functions: basic
// blocks, the flow graph, dominators, natural-loop detection and
// register liveness.  The optimizer (package opt) runs every
// transformation against these structures, mirroring the paper's vpo
// design where analysis is cheap to recompute so phases can be
// reinvoked in any order.  Passes rebuild them after changing the code,
// except where a rewrite provably leaves them intact: Combine and
// SinkCopies keep one graph and its liveness for a whole call and only
// move block bounds (Graph.NoteRemoval).
package cfg

import (
	"fmt"
	"sort"
	"strings"

	"wmstream/internal/rtl"
)

// Block is a maximal straight-line sequence of instructions.  Start and
// End delimit the half-open index range [Start, End) into the owning
// function's Code slice.
type Block struct {
	Index      int
	Start, End int
	Succs      []*Block
	Preds      []*Block

	// Liveness results, filled in by Graph.Liveness.
	LiveIn  RegSet
	LiveOut RegSet
}

// Instrs returns the block's instructions.
func (b *Block) Instrs(f *rtl.Func) []*rtl.Instr { return f.Code[b.Start:b.End] }

// Graph is the control-flow graph of one function.
type Graph struct {
	F      *rtl.Func
	Blocks []*Block
	Entry  *Block

	labelBlock map[string]*Block
	idom       []*Block // immediate dominator per block index, nil until Dominators
	// pre and post number each block in a depth-first walk of the
	// dominator tree (-1 for an unreachable block), so that a dominates
	// b exactly when a's interval [pre, post] contains b's.
	pre, post []int
}

// Build constructs the control-flow graph of f.  Unreachable trailing
// code still gets blocks (they simply have no predecessors).  A branch
// whose target label does not exist in the function is reported as an
// error (reachable from user input: hand-written assembly accepted by
// rtl.Parse can name labels it never defines).
func Build(f *rtl.Func) (*Graph, error) {
	g := &Graph{F: f, labelBlock: map[string]*Block{}}
	if len(f.Code) == 0 {
		g.Entry = &Block{}
		g.Blocks = []*Block{g.Entry}
		return g, nil
	}
	// Find leaders.
	leader := make([]bool, len(f.Code)+1)
	leader[0] = true
	for n, i := range f.Code {
		switch {
		case i.Kind == rtl.KLabel:
			leader[n] = true
		case i.IsBranch():
			leader[n+1] = true
		}
	}
	// Carve blocks.
	start := 0
	for n := 1; n <= len(f.Code); n++ {
		if n == len(f.Code) || leader[n] {
			b := &Block{Index: len(g.Blocks), Start: start, End: n}
			g.Blocks = append(g.Blocks, b)
			start = n
			if n == len(f.Code) {
				break
			}
		}
	}
	// Map labels to blocks.
	for _, b := range g.Blocks {
		for _, i := range b.Instrs(f) {
			if i.Kind == rtl.KLabel {
				g.labelBlock[i.Name] = b
			}
		}
	}
	// Wire edges.
	for n, b := range g.Blocks {
		last := f.Code[b.End-1]
		addFallthrough := true
		switch last.Kind {
		case rtl.KJump:
			to := g.labelBlock[last.Target]
			if to == nil {
				return nil, fmt.Errorf("cfg: %s: branch to unknown label %q", f.Name, last.Target)
			}
			g.addEdge(b, to)
			addFallthrough = false
		case rtl.KCondJump, rtl.KJumpNotDone:
			to := g.labelBlock[last.Target]
			if to == nil {
				return nil, fmt.Errorf("cfg: %s: branch to unknown label %q", f.Name, last.Target)
			}
			g.addEdge(b, to)
		case rtl.KRet, rtl.KHalt:
			addFallthrough = false
		}
		if addFallthrough && n+1 < len(g.Blocks) {
			g.addEdge(b, g.Blocks[n+1])
		}
	}
	g.Entry = g.Blocks[0]
	return g, nil
}

func (g *Graph) addEdge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// BlockOf returns the block containing instruction index n, or nil
// when n is outside the code.  Blocks are contiguous and sorted by
// Start, so this is a binary search.
func (g *Graph) BlockOf(n int) *Block {
	k := sort.Search(len(g.Blocks), func(k int) bool { return g.Blocks[k].End > n })
	if k == len(g.Blocks) || n < g.Blocks[k].Start {
		return nil
	}
	return g.Blocks[k]
}

// NoteRemoval records that one instruction of block b, neither a label
// nor a branch, has been removed from the code: b ends one earlier and
// every later block moves down by one.  Edges and liveness are kept as
// they are, so a pass calls this only for a removal that provably
// leaves them unchanged (DESIGN.md, "Keeping an analysis across
// rewrites").
func (g *Graph) NoteRemoval(b *Block) {
	b.End--
	for _, c := range g.Blocks[b.Index+1:] {
		c.Start--
		c.End--
	}
}

// LabelBlock returns the block starting with the named label, or nil.
func (g *Graph) LabelBlock(name string) *Block { return g.labelBlock[name] }

// Dominators computes immediate dominators with the classic iterative
// data-flow algorithm (the graphs here are tiny), then numbers the
// dominator tree for Dominates.  The entry block's idom is itself.
func (g *Graph) Dominators() {
	n := len(g.Blocks)
	// Reverse postorder.
	order := g.ReversePostorder()
	rpoNum := make([]int, n)
	for k, b := range order {
		rpoNum[b.Index] = k
	}
	idom := make([]*Block, n)
	idom[g.Entry.Index] = g.Entry
	changed := true
	for changed {
		changed = false
		for _, b := range order {
			if b == g.Entry {
				continue
			}
			var newIdom *Block
			for _, p := range b.Preds {
				if idom[p.Index] == nil {
					continue
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = g.intersect(idom, rpoNum, p, newIdom)
				}
			}
			if newIdom != nil && idom[b.Index] != newIdom {
				idom[b.Index] = newIdom
				changed = true
			}
		}
	}
	g.idom = idom
	g.numberTree()
}

// numberTree gives every reachable block its pre and post number in a
// depth-first walk of the dominator tree.
func (g *Graph) numberTree() {
	n := len(g.Blocks)
	kids := make([][]*Block, n)
	for _, b := range g.Blocks {
		if d := g.idom[b.Index]; d != nil && d != b {
			kids[d.Index] = append(kids[d.Index], b)
		}
	}
	g.pre, g.post = make([]int, n), make([]int, n)
	for k := range g.pre {
		g.pre[k], g.post[k] = -1, -1
	}
	type frame struct {
		b    *Block
		next int
	}
	clock := 0
	stack := []frame{{b: g.Entry}}
	g.pre[g.Entry.Index] = clock
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if top.next < len(kids[top.b.Index]) {
			c := kids[top.b.Index][top.next]
			top.next++
			clock++
			g.pre[c.Index] = clock
			stack = append(stack, frame{b: c})
			continue
		}
		clock++
		g.post[top.b.Index] = clock
		stack = stack[:len(stack)-1]
	}
}

func (g *Graph) intersect(idom []*Block, rpoNum []int, a, b *Block) *Block {
	for a != b {
		for rpoNum[a.Index] > rpoNum[b.Index] {
			a = idom[a.Index]
			if a == nil {
				return b
			}
		}
		for rpoNum[b.Index] > rpoNum[a.Index] {
			b = idom[b.Index]
			if b == nil {
				return a
			}
		}
	}
	return a
}

// Idom returns the immediate dominator of b (entry returns itself).
// Dominators must have been called.
func (g *Graph) Idom(b *Block) *Block {
	if g.idom == nil {
		panic("cfg: Dominators not computed")
	}
	return g.idom[b.Index]
}

// Dominates reports whether a dominates b (reflexively): two compares
// of the dominator tree's numbering.
func (g *Graph) Dominates(a, b *Block) bool {
	if g.idom == nil {
		panic("cfg: Dominators not computed")
	}
	if a == b {
		return true
	}
	pa, pb := g.pre[a.Index], g.pre[b.Index]
	return pa >= 0 && pb >= 0 && pa <= pb && g.post[b.Index] <= g.post[a.Index]
}

// ReversePostorder returns the blocks reachable from entry in reverse
// postorder.
func (g *Graph) ReversePostorder() []*Block {
	visited := make([]bool, len(g.Blocks))
	var post []*Block
	var dfs func(b *Block)
	dfs = func(b *Block) {
		visited[b.Index] = true
		for _, s := range b.Succs {
			if !visited[s.Index] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(g.Entry)
	// Reverse.
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// String renders the graph structure for debugging.
func (g *Graph) String() string {
	var sb strings.Builder
	for _, b := range g.Blocks {
		var succ []string
		for _, s := range b.Succs {
			succ = append(succ, fmt.Sprint(s.Index))
		}
		sort.Strings(succ)
		fmt.Fprintf(&sb, "B%d [%d,%d) -> {%s}\n", b.Index, b.Start, b.End, strings.Join(succ, ","))
	}
	return sb.String()
}
