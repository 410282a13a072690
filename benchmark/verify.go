package main

import (
	"math"

	"meshgnn"
)

// gateSteps is how many training steps after the cold one each training
// gate compares.
const gateSteps = 5

// consistencyTol is the relative loss agreement demanded between
// different rank counts (the paper's consistency: R ranks compute what
// one rank computes, up to the order of the reductions).
const consistencyTol = 1e-10

// trainLosses sets the given training system up and returns rank 0's
// losses of gateSteps steps, taken with the library's Trainer.Step or
// with the benchmark's decomposed step.
func trainLosses(sp spec, times []float64, decomposed bool) ([]float64, error) {
	var losses []float64
	_, _, err := trainSession(sp, times, nil, func(tk *trainRank) error {
		cur := &rankCursor{parent: root, op: -1}
		for i := 1; i <= gateSteps; i++ {
			var loss float64
			if decomposed {
				x, y := tk.sample(i)
				loss, _ = tk.decomposedStep(nil, cur, i, x, y, nil)
			} else {
				loss, _ = tk.step(i)
			}
			if tk.id == 0 {
				losses = append(losses, loss)
			}
		}
		return nil
	})
	return losses, err
}

// verifyTrain checks the training workload's arithmetic before it is
// timed: the workload's own fabric against the same ranks on the channel
// fabric with the synchronous exchange, bit for bit (transport, emulated
// delay and overlap are scheduling, not arithmetic); against the other
// rank count, to consistencyTol; and, in a traced run, the decomposed
// step against Trainer.Step, bit for bit.
func verifyTrain(sp spec, times []float64, traced bool, rep *report) error {
	own, err := trainLosses(sp, times, false)
	if err != nil {
		return err
	}
	plain := sp
	plain.fab, plain.linkDelay = meshgnn.InProcess, 0
	plain.config = func() meshgnn.Config {
		c := sp.config()
		c.Overlap = false
		return c
	}
	ref, err := trainLosses(plain, times, false)
	if err != nil {
		return err
	}
	other := plain
	other.ranks = 3 - sp.ranks // one rank against two
	cross, err := trainLosses(other, times, false)
	if err != nil {
		return err
	}
	for i := range own {
		if math.Float64bits(own[i]) != math.Float64bits(ref[i]) {
			rep.gateFailed("step %d: loss %v on the workload's fabric, %v on the synchronous channel fabric", i+1, own[i], ref[i])
		}
		if !(math.Abs(own[i]-cross[i]) <= consistencyTol*math.Abs(cross[i])) {
			rep.gateFailed("step %d: loss %v on %d ranks, %v on %d", i+1, own[i], sp.ranks, cross[i], other.ranks)
		}
	}
	if traced {
		dec, err := trainLosses(plain, times, true)
		if err != nil {
			return err
		}
		for i := range ref {
			if math.Float64bits(dec[i]) != math.Float64bits(ref[i]) {
				rep.gateFailed("step %d: decomposed step loss %v, Trainer.Step %v", i+1, dec[i], ref[i])
			}
		}
	}
	return nil
}
