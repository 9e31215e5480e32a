package obs

import (
	"context"
	"testing"
	"time"
)

func TestSpanNestingAndAttribution(t *testing.T) {
	root := NewSpan("run")
	for i := 0; i < 3; i++ {
		c := root.StartChild("estimate")
		time.Sleep(2 * time.Millisecond)
		c.End()
	}
	g := root.StartChild("flush")
	time.Sleep(time.Millisecond)
	g.End()
	time.Sleep(time.Millisecond) // uncovered time -> "other"
	root.End()

	stages := root.Stages()
	if len(stages) != 3 {
		t.Fatalf("got %d stages (%v), want 3 (estimate, flush, other)", len(stages), stages)
	}
	if stages[0].Name != "estimate" || stages[0].Count != 3 {
		t.Errorf("stage 0: got %+v, want estimate x3", stages[0])
	}
	if stages[1].Name != "flush" || stages[1].Count != 1 {
		t.Errorf("stage 1: got %+v, want flush x1", stages[1])
	}
	if stages[2].Name != "other" {
		t.Errorf("stage 2: got %+v, want other", stages[2])
	}
	var sum time.Duration
	for _, s := range stages {
		if s.Dur <= 0 {
			t.Errorf("stage %s has non-positive duration", s.Name)
		}
		sum += s.Dur
	}
	if total := root.Duration(); sum != total {
		// Stages covers the full root duration exactly: children + other.
		t.Errorf("stage sum %v != root duration %v", sum, total)
	}
}

func TestSpanNilSafety(t *testing.T) {
	var sp *Span
	c := sp.StartChild("x") // must not panic
	if c != nil {
		t.Error("nil span produced a child")
	}
	c.End()
	if c.Duration() != 0 || c.Name() != "" || c.Stages() != nil {
		t.Error("nil span reported non-zero state")
	}
}

func TestStartSpanContext(t *testing.T) {
	ctx, root := StartSpan(context.Background(), "root")
	if FromContext(ctx) != root {
		t.Fatal("context does not carry the root span")
	}
	ctx2, child := StartSpan(ctx, "child")
	child.End()
	root.End()
	if FromContext(ctx2) != child {
		t.Error("derived context does not carry the child span")
	}
	if len(root.Stages()) == 0 || root.Stages()[0].Name != "child" {
		t.Errorf("child not attributed to root: %v", root.Stages())
	}
	// ContextWithSpan: a nil span keeps the context's span, another
	// span replaces it.
	if FromContext(ContextWithSpan(ctx, nil)) != root {
		t.Error("a nil span dropped the context's span")
	}
	if FromContext(ContextWithSpan(ctx, child)) != child {
		t.Error("ContextWithSpan did not attach the span")
	}
}

// TestSpanEndClampsRunningChildren is the regression test for span
// attribution of unfinished children: ending a parent must end (or
// clamp) still-running descendants so Stages never attributes time past
// the parent's end.
func TestSpanEndClampsRunningChildren(t *testing.T) {
	root := NewSpan("run")
	c := root.StartChild("estimate")
	g := c.StartChild("inner") // grandchild, also left running
	_ = g
	time.Sleep(2 * time.Millisecond)
	root.End() // neither c nor g was ended

	if endTime(c).IsZero() || endTime(g).IsZero() {
		t.Fatal("End did not end the running descendants")
	}
	if endTime(c).After(endTime(root)) || endTime(g).After(endTime(c)) {
		t.Errorf("descendant ends past the parent: root=%v child=%v grandchild=%v",
			endTime(root), endTime(c), endTime(g))
	}
	var stageSum time.Duration
	for _, st := range root.Stages() {
		stageSum += st.Dur
	}
	if total := root.Duration(); stageSum != total {
		t.Errorf("stages sum %v != root duration %v", stageSum, total)
	}
	if d := c.Duration(); d > root.Duration() {
		t.Errorf("child duration %v exceeds root duration %v", d, root.Duration())
	}
	// Duration must be stable afterwards: the child is really ended, not
	// still measuring to now.
	d := c.Duration()
	time.Sleep(2 * time.Millisecond)
	if c.Duration() != d {
		t.Error("clamped child keeps accumulating time")
	}
}

// endTime reads the span's end time, zero while it is still running.
func endTime(s *Span) time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.end
}

// A child ended after its parent's end (out-of-order Ends) is pulled
// back to the parent's end on the parent's End.
func TestSpanEndClampsLateChildEnd(t *testing.T) {
	root := NewSpan("run")
	c := root.StartChild("late")
	time.Sleep(time.Millisecond)
	root.End()
	c.End() // no-op: c was already clamped by root.End
	if endTime(c).After(endTime(root)) {
		t.Errorf("child end %v past root end %v", endTime(c), endTime(root))
	}
}

func TestSpanData(t *testing.T) {
	root := NewSpan("run")
	c := root.StartChild("stage")
	time.Sleep(time.Millisecond)
	c.End()
	root.End()
	d := root.Data()
	if d.Name != "run" || len(d.Children) != 1 || d.Children[0].Name != "stage" {
		t.Fatalf("data: %+v", d)
	}
	if d.Duration() <= 0 || d.Children[0].Duration() <= 0 {
		t.Error("non-positive durations in snapshot")
	}
	if d.Children[0].End.After(d.End) || d.Children[0].Start.Before(d.Start) {
		t.Error("child snapshot extends outside the parent")
	}
	var nilSpan *Span
	if got := nilSpan.Data(); got.Name != "" || got.Children != nil {
		t.Errorf("nil span data: %+v", got)
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	sp := NewSpan("x")
	time.Sleep(time.Millisecond)
	sp.End()
	d := sp.Duration()
	time.Sleep(time.Millisecond)
	sp.End()
	if sp.Duration() != d {
		t.Error("second End moved the end time")
	}
}
