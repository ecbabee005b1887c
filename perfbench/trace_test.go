package main

import (
	"testing"
	"time"

	"mozart/internal/obs"
)

func TestSelfTimeSyntheticTree(t *testing.T) {
	// root [0,100) with children [10,30) and [20,50) overlapping (parallel
	// workers), and [90,120) sticking out past the root's end.
	root := interval{0, 100}
	kids := []interval{{10, 30}, {20, 50}, {90, 120}}
	if got := selfTime(root, kids); got != 100-40-10 {
		t.Errorf("root self time %d, want 50", got)
	}
	// A leaf's self time is its duration.
	if got := selfTime(interval{20, 50}, nil); got != 30 {
		t.Errorf("leaf self time %d, want 30", got)
	}
	// Children covering the parent completely leave no self time.
	if got := selfTime(interval{0, 10}, []interval{{-5, 4}, {3, 12}}); got != 0 {
		t.Errorf("covered parent self time %d, want 0", got)
	}
}

func TestAttributeNamesLargestGap(t *testing.T) {
	wall := interval{0, 100}
	parts := []labeled{
		{interval{40, 60}, "stage 0"},
		{interval{5, 10}, "plan"},
		{interval{62, 95}, "stage 1"},
	}
	u, gap := attribute(wall, "start", "end", parts)
	if u != 100-58 {
		t.Errorf("unattributed %d, want 42", u)
	}
	if gap.ns != 30 || gap.after != "plan" || gap.before != "stage 0" {
		t.Errorf("largest gap %+v, want 30ns between plan and stage 0", gap)
	}
}

func TestSumLayersFromEvents(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ns int) time.Time { return t0.Add(time.Duration(ns)) }
	evs := []obs.Event{
		{Kind: obs.EvSessionBegin, Time: at(0)},
		{Kind: obs.EvPlan, Time: at(10), Dur: 5},
		{Kind: obs.EvStageBegin, Time: at(12), Stage: 0, Workers: 2},
		{Kind: obs.EvBatch, Time: at(60), Dur: 40, Stage: 0, Worker: 0, Bytes: 800, SplitNS: 3, TaskNS: 30},
		{Kind: obs.EvBatch, Time: at(50), Dur: 30, Stage: 0, Worker: 1, Bytes: 600, SplitNS: 2, TaskNS: 25},
		{Kind: obs.EvMerge, Time: at(65), Dur: 5, Stage: 0, Worker: 0},
		{Kind: obs.EvMerge, Time: at(80), Dur: 10, Stage: 0, Worker: obs.RuntimeLane},
		{Kind: obs.EvStageEnd, Time: at(80), Dur: 70, Stage: 0},
		{Kind: obs.EvSessionEnd, Time: at(85), Dur: 85},
	}
	s := sumLayers(spansFromEvents(evs))
	if s.stages != 1 || s.batches != 2 || s.movedBytes != 1400 {
		t.Errorf("counts %+v", s)
	}
	if s.planNS != 5 || s.premergeNS != 5 || s.finalMergeNS != 10 || s.splitNS != 5 || s.taskNS != 55 {
		t.Errorf("times %+v", s)
	}
	// Two workers over a 70ns stage, busy 40+30 on batches and 5 on a
	// pre-merge.
	if s.idleNS != 2*70-75 {
		t.Errorf("idle %d, want 65", s.idleNS)
	}
}
