package main

import (
	"testing"
	"time"
)

// TestReferenceAllocatesNothing pins the reason a calibration never meets
// a collection: the reference kernel allocates nothing.
func TestReferenceAllocatesNothing(t *testing.T) {
	r := newReference()
	if n := testing.AllocsPerRun(50, r.work); n != 0 {
		t.Errorf("reference kernel allocates %v times a repetition", n)
	}
}

// TestSegmentPaceIsAtLeastItsCalibrations checks that a segment's pace is
// the mean of its calibrations, raised by any stolen time, and is
// recorded.
func TestSegmentPaceIsAtLeastItsCalibrations(t *testing.T) {
	p := newPacer()
	before := p.cpu
	pace, cpu := p.segment()
	if !(before > 0) || !(p.cpu > 0) || len(p.all) != 1 || p.all[0] != pace {
		t.Fatalf("calibrations %v and %v, segment paces %v", before, p.cpu, p.all)
	}
	if mean := (before + p.cpu) / 2; cpu != mean || pace < mean || pace > 10*mean {
		t.Errorf("segment paces %v and %v, want the mean of its calibrations %v, the first raised by stolen time", pace, cpu, mean)
	}
}

func TestCPUTicksReadsStolenTime(t *testing.T) {
	total, steal := cpuTicks()
	if total == 0 || steal > total {
		t.Errorf("total %d ticks, stolen %d", total, steal)
	}
}

// TestScaleDividesBySegmentPace checks that a segment's latencies and
// measured time are divided by its pace and its wall-clock time is kept.
func TestScaleDividesBySegmentPace(t *testing.T) {
	p := phase{
		lat:     []time.Duration{4 * time.Millisecond, 8 * time.Millisecond},
		first:   []time.Duration{2 * time.Millisecond, 6 * time.Millisecond},
		elapsed: time.Second,
	}
	p.scale(2)
	want := phase{
		lat:     []time.Duration{2 * time.Millisecond, 4 * time.Millisecond},
		first:   []time.Duration{time.Millisecond, 3 * time.Millisecond},
		elapsed: time.Second,
		paced:   500 * time.Millisecond,
	}
	for i := range want.lat {
		if p.lat[i] != want.lat[i] || p.first[i] != want.first[i] {
			t.Errorf("request %d: latency %v first byte %v, want %v and %v", i, p.lat[i], p.first[i], want.lat[i], want.first[i])
		}
	}
	if p.elapsed != want.elapsed || p.paced != want.paced {
		t.Errorf("elapsed %v paced %v, want %v and %v", p.elapsed, p.paced, want.elapsed, want.paced)
	}
}
