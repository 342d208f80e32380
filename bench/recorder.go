package main

import (
	"math"
	"slices"
	"time"
)

// samples is a fixed-capacity buffer of int64 measurements (nanoseconds).
// It is sized before timing starts and never grows: recording is a bounds
// check and a store, so the recorder cannot perturb what it measures.
// Measurements past the capacity are counted, not kept.
type samples struct {
	v        []int64
	overflow int
}

func newSamples(capacity int) *samples { return &samples{v: make([]int64, 0, capacity)} }

func (s *samples) record(ns int64) {
	if len(s.v) == cap(s.v) {
		s.overflow++
		return
	}
	s.v = append(s.v, ns)
}

// sorted sorts the buffer in place and returns it.
func (s *samples) sorted() []int64 {
	slices.Sort(s.v)
	return s.v
}

// percentile is the nearest-rank percentile of an ascending slice: the
// smallest value with at least p percent of the samples at or below it.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(float64(len(sorted))*p/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median of a float slice (sorts a copy; used on a handful of values).
func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := slices.Clone(v)
	slices.Sort(c)
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}

// schedule is an open-loop arrival schedule: request i is due at
// start + i*interval regardless of when the generator gets to issue it.
type schedule struct {
	start    time.Time
	interval time.Duration
}

func (s schedule) due(i int) time.Time { return s.start.Add(time.Duration(i) * s.interval) }

// openLoop accounts an open-loop phase from due times: a request's latency
// is completion minus due time, so a request the generator issued late is
// charged the wait, and how late the generator ran is kept separately.
type openLoop struct {
	sched    schedule
	latency  *samples
	lateness *samples
}

func newOpenLoop(sched schedule, n int) *openLoop {
	return &openLoop{sched: sched, latency: newSamples(n), lateness: newSamples(n)}
}

func (o *openLoop) issued(i int, at time.Time)    { o.lateness.record(int64(at.Sub(o.sched.due(i)))) }
func (o *openLoop) completed(i int, at time.Time) { o.latency.record(int64(at.Sub(o.sched.due(i)))) }
