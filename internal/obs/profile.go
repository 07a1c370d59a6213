package obs

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"
)

// Profile is a single-query operator profile: a tree of Enter/Exit frames
// recording rows produced and wall/own nanoseconds per operator, the raw
// material for EXPLAIN ANALYZE-style output. One Profile belongs to one
// query execution; Enter/Exit pair like a call stack. A coarse mutex
// guards the tree — operators run for microseconds, frames flip far less
// often, and the executor itself is single-goroutine per query.
//
// All methods are nil-safe: instrumented layers call
// ProfileFrom(ctx).Enter(...) unconditionally, and an unprofiled query
// (nil Profile) pays one context lookup and a nil check.
type Profile struct {
	mu    sync.Mutex
	roots []*ProfNode
	cur   *ProfNode
}

// ProfNode is one operator frame in the profile tree.
type ProfNode struct {
	Name     string      `json:"op"`
	Detail   string      `json:"detail,omitempty"`
	Rows     int64       `json:"rows"` // -1 when the operator failed before producing rows
	WallNS   int64       `json:"wall_ns"`
	OwnNS    int64       `json:"own_ns"`
	Children []*ProfNode `json:"children,omitempty"`

	start   time.Time
	childNS int64
	up      *ProfNode
}

// NewProfile returns an empty profile.
func NewProfile() *Profile { return &Profile{} }

// Enter opens an operator frame under the current one. Nil-safe.
func (p *Profile) Enter(name, detail string) *ProfNode {
	if p == nil {
		return nil
	}
	n := &ProfNode{Name: name, Detail: detail, Rows: -1, start: time.Now()}
	p.mu.Lock()
	n.up = p.cur
	if p.cur == nil {
		p.roots = append(p.roots, n)
	} else {
		p.cur.Children = append(p.cur.Children, n)
	}
	p.cur = n
	p.mu.Unlock()
	return n
}

// Exit closes the frame opened by the matching Enter, recording the rows
// it produced (-1 when it failed before producing any). Nil-safe.
func (p *Profile) Exit(n *ProfNode, rows int64) {
	if p == nil || n == nil {
		return
	}
	wall := time.Since(n.start).Nanoseconds()
	p.mu.Lock()
	n.Rows = rows
	n.WallNS = wall
	n.OwnNS = wall - n.childNS
	if n.OwnNS < 0 {
		n.OwnNS = 0
	}
	if n.up != nil {
		n.up.childNS += wall
	}
	if p.cur == n {
		p.cur = n.up
	}
	p.mu.Unlock()
}

// Roots returns the top-level operator frames. Nil-safe.
func (p *Profile) Roots() []*ProfNode {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]*ProfNode(nil), p.roots...)
}

// OpStat is one operator in pre-order flattened form, the JSON shape
// attached to query responses (depth reconstructs the tree).
type OpStat struct {
	Op     string `json:"op"`
	Detail string `json:"detail,omitempty"`
	Depth  int    `json:"depth"`
	Rows   int64  `json:"rows"`
	WallNS int64  `json:"wall_ns"`
	OwnNS  int64  `json:"own_ns"`
}

// Flatten returns the tree in pre-order with depths. Nil-safe.
func (p *Profile) Flatten() []OpStat {
	if p == nil {
		return nil
	}
	var out []OpStat
	var walk func(n *ProfNode, depth int)
	walk = func(n *ProfNode, depth int) {
		out = append(out, OpStat{Op: n.Name, Detail: n.Detail, Depth: depth,
			Rows: n.Rows, WallNS: n.WallNS, OwnNS: n.OwnNS})
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	p.mu.Lock()
	roots := append([]*ProfNode(nil), p.roots...)
	p.mu.Unlock()
	for _, r := range roots {
		walk(r, 0)
	}
	return out
}

// String renders the profile as an indented tree, one operator per line,
// in the style of federate.Explain:
//
//	scan sql.edges  rows=120 wall=1.2ms own=300µs
//	  filter src == "s1"  rows=40 wall=900µs own=900µs
//
// Nil-safe (renders "").
func (p *Profile) String() string {
	var sb strings.Builder
	for _, st := range p.Flatten() {
		sb.WriteString(strings.Repeat("  ", st.Depth))
		sb.WriteString(st.Op)
		if st.Detail != "" {
			sb.WriteByte(' ')
			sb.WriteString(st.Detail)
		}
		if st.Rows >= 0 {
			fmt.Fprintf(&sb, "  rows=%d", st.Rows)
		} else {
			sb.WriteString("  rows=-")
		}
		fmt.Fprintf(&sb, " wall=%s own=%s", time.Duration(st.WallNS), time.Duration(st.OwnNS))
		sb.WriteByte('\n')
	}
	return sb.String()
}

type profileKey struct{}

// WithProfile returns a context carrying the profile.
func WithProfile(ctx context.Context, p *Profile) context.Context {
	return context.WithValue(ctx, profileKey{}, p)
}

// ProfileFrom returns the context's profile, or nil when the query is not
// being profiled.
func ProfileFrom(ctx context.Context) *Profile {
	if ctx == nil {
		return nil
	}
	p, _ := ctx.Value(profileKey{}).(*Profile)
	return p
}
