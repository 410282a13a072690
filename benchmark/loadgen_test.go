package main

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestArrivalScheduleRepeats(t *testing.T) {
	draw := func(seed int64) []time.Duration {
		return arrivalSchedule(rand.New(rand.NewSource(seed)), 80, 10*time.Second, 8)
	}
	a, b := draw(7), draw(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew two different schedules")
	}
	if len(a) != 800 {
		t.Fatalf("%d arrivals, want rate x window = 800", len(a))
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i] < a[j] }) {
		t.Fatal("schedule is not in time order")
	}
	if a[0] < 0 || a[len(a)-1] >= 10*time.Second {
		t.Fatalf("arrivals [%v, %v] leave the window", a[0], a[len(a)-1])
	}
	if reflect.DeepEqual(a, draw(8)) {
		t.Fatal("different seeds drew the same schedule")
	}
}

func TestScheduleBurstsArePaced(t *testing.T) {
	due := arrivalSchedule(rand.New(rand.NewSource(3)), 80, 10*time.Second, 8)
	for i := 1; i < len(due); i++ {
		gap := due[i] - due[i-1]
		if i%8 != 0 {
			if gap != 0 {
				t.Fatalf("arrival %d is %v after its burst began", i, gap)
			}
			continue
		}
		// Mean gap 100 ms, varied by a fifth, rescaled by at most a few percent.
		if gap < 76*time.Millisecond || gap > 124*time.Millisecond {
			t.Fatalf("burst %d comes %v after the one before, outside 100 ms +- 20%%", i/8, gap)
		}
	}
}

func TestInputsFromSeedRepeat(t *testing.T) {
	sp, _ := findWorkload("serve_burst")
	o := options{seed: 3, seconds: 2}
	if !reflect.DeepEqual(inputsFromSeed(sp, o), inputsFromSeed(sp, o)) {
		t.Fatal("the same seed generated different inputs")
	}
}

func TestOpenLoopCountsEveryArrival(t *testing.T) {
	due := []time.Duration{0, time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}
	l := openLoop(due, nil, false, func(i, _ int) error {
		if i == 2 {
			return errWrongBits
		}
		return nil
	})
	if l.sent != 4 || l.failed != 1 || l.rec.ops() != 3 || l.sloMiss != 1 {
		t.Fatalf("sent %d failed %d completed %d missed %d, want 4 1 3 1", l.sent, l.failed, l.rec.ops(), l.sloMiss)
	}
}
