package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestProfileTreeShape(t *testing.T) {
	p := NewProfile()
	sortN := p.Enter("sort", "by cnt desc")
	scanN := p.Enter("scan", "sql.edges")
	time.Sleep(time.Millisecond)
	p.Exit(scanN, 120)
	p.Exit(sortN, 10)

	flat := p.Flatten()
	if len(flat) != 2 {
		t.Fatalf("got %d ops, want 2", len(flat))
	}
	if flat[0].Op != "sort" || flat[0].Depth != 0 || flat[0].Rows != 10 {
		t.Fatalf("root = %+v", flat[0])
	}
	if flat[1].Op != "scan" || flat[1].Depth != 1 || flat[1].Rows != 120 {
		t.Fatalf("child = %+v", flat[1])
	}
	if flat[0].WallNS < flat[1].WallNS {
		t.Fatalf("parent wall %d < child wall %d", flat[0].WallNS, flat[1].WallNS)
	}
	if flat[0].OwnNS != flat[0].WallNS-flat[1].WallNS {
		t.Fatalf("own = %d, want wall-child = %d", flat[0].OwnNS, flat[0].WallNS-flat[1].WallNS)
	}
	out := p.String()
	if !strings.Contains(out, "sort by cnt desc  rows=10") ||
		!strings.Contains(out, "\n  scan sql.edges  rows=120") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestProfileSiblings(t *testing.T) {
	p := NewProfile()
	join := p.Enter("join", "on id")
	l := p.Enter("scan", "left")
	p.Exit(l, 5)
	r := p.Enter("scan", "right")
	p.Exit(r, 7)
	p.Exit(join, 3)
	flat := p.Flatten()
	if len(flat) != 3 || flat[1].Depth != 1 || flat[2].Depth != 1 {
		t.Fatalf("sibling shape wrong: %+v", flat)
	}
	if flat[0].OwnNS != flat[0].WallNS-flat[1].WallNS-flat[2].WallNS {
		t.Fatal("own time did not subtract both children")
	}
}

func TestProfileErrorFrameRows(t *testing.T) {
	p := NewProfile()
	n := p.Enter("scan", "boom")
	p.Exit(n, -1)
	if got := p.Flatten()[0].Rows; got != -1 {
		t.Fatalf("rows = %d, want -1", got)
	}
	if !strings.Contains(p.String(), "rows=-") {
		t.Fatalf("failed frame render: %q", p.String())
	}
}

func TestProfileNilSafety(t *testing.T) {
	var p *Profile
	n := p.Enter("x", "")
	if n != nil {
		t.Fatal("nil profile allocated a node")
	}
	p.Exit(n, 1)
	if p.Flatten() != nil || p.Roots() != nil || p.String() != "" {
		t.Fatal("nil profile methods not inert")
	}
}

// TestProfileEnterChild pins that Exit is safe from concurrent goroutines
// (run under -race): frames opened with the cursor-based Enter keep the
// tree shape the cursor gave them and each records its own rows, whatever
// order their Exits land in.
func TestProfileEnterChild(t *testing.T) {
	p := NewProfile()
	root := p.Enter("sort", "")
	agg := p.Enter("aggregate", "by src")
	scan := p.Enter("scan", "sql.edges")
	var wg sync.WaitGroup
	for _, fr := range []struct {
		n    *ProfNode
		rows int64
	}{{scan, 4}, {agg, 3}, {root, 2}} {
		wg.Add(1)
		go func(n *ProfNode, rows int64) {
			defer wg.Done()
			p.Exit(n, rows)
		}(fr.n, fr.rows)
	}
	wg.Wait()
	flat := p.Flatten()
	want := []struct {
		op    string
		depth int
		rows  int64
	}{{"sort", 0, 2}, {"aggregate", 1, 3}, {"scan", 2, 4}}
	if len(flat) != len(want) {
		t.Fatalf("got %d frames, want %d:\n%s", len(flat), len(want), p.String())
	}
	for i, w := range want {
		if flat[i].Op != w.op || flat[i].Depth != w.depth || flat[i].Rows != w.rows {
			t.Fatalf("frame %d = %+v, want %s at depth %d with %d rows", i, flat[i], w.op, w.depth, w.rows)
		}
	}
}

func TestProfileContextRoundTrip(t *testing.T) {
	p := NewProfile()
	ctx := WithProfile(context.Background(), p)
	if ProfileFrom(ctx) != p {
		t.Fatal("profile lost in context")
	}
	if ProfileFrom(context.Background()) != nil {
		t.Fatal("fresh context carries a profile")
	}
}
