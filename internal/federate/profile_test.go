package federate

import (
	"context"
	"testing"

	"repro/internal/nql"
	"repro/internal/obs"
)

// TestExecProfileOperatorTree: every operator emits one frame, nested
// like the plan, with its output rows and wall/own time.
func TestExecProfileOperatorTree(t *testing.T) {
	cat := testCatalog()
	// An opaque predicate does not fold into the scan, so the plan keeps
	// three operators.
	plan := &Sort{
		Cols: []string{"bytes"},
		Input: &Filter{
			Input: &Scan{Source: SourceGraph, Table: "edges"},
			Pred: FuncPred{Fn: func(row *nql.Map) (bool, error) {
				v, _ := row.Get("bytes")
				return v.(int64) >= 100, nil
			}},
		},
	}
	prof := obs.NewProfile()
	ctx := obs.WithProfile(context.Background(), prof)
	rel, err := RunContext(ctx, cat, plan)
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	if len(rel.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rel.Rows))
	}
	flat := prof.Flatten()
	if len(flat) != 3 {
		t.Fatalf("got %d frames, want 3 (sort > filter > scan):\n%s", len(flat), prof.String())
	}
	want := []struct {
		op    string
		depth int
		rows  int64
	}{
		{"sort", 0, 3},
		{"filter", 1, 3},
		{"scan", 2, 4},
	}
	for i, w := range want {
		got := flat[i]
		if got.Op != w.op || got.Depth != w.depth || got.Rows != w.rows {
			t.Fatalf("frame %d = %+v, want op=%s depth=%d rows=%d\n%s", i, got, w.op, w.depth, w.rows, prof.String())
		}
		if got.WallNS < got.OwnNS {
			t.Fatalf("frame %d wall %d < own %d", i, got.WallNS, got.OwnNS)
		}
	}
	// Parent wall subsumes child wall.
	if flat[0].WallNS < flat[1].WallNS || flat[1].WallNS < flat[2].WallNS {
		t.Fatalf("wall times do not nest:\n%s", prof.String())
	}
	// The caller's catalog must stay pristine (profile rides the run copy).
	if cat.prof != nil || cat.ctx != nil {
		t.Fatal("RunContext mutated the caller's catalog")
	}
}

func TestExecUnprofiledNoFrames(t *testing.T) {
	cat := testCatalog()
	rel, err := RunContext(context.Background(), cat, &Scan{Source: SourceSQL, Table: "edges"})
	if err != nil || len(rel.Rows) != 4 {
		t.Fatalf("unprofiled run: rel=%v err=%v", rel, err)
	}
}
