package gnn

import (
	"errors"
	"fmt"
	"testing"

	"meshgnn/internal/comm"
)

// TestRefreshRefusedWhileSessionsLive pins the serving-refresh hazard fix
// at both precisions (a Float32 engine has Session views since the core/
// session split, so it has the hazard too):
// Refresh repacks the weight panels and empties the static-edge cache IN
// PLACE under every Session view of the compile, so while any view is
// outstanding it must refuse with ErrLiveSessions instead of corrupting
// sibling predictions. Run under -race this also drives Predicts
// concurrently with the refused Refresh calls — the refusal path must not
// touch shared compile state.
func TestRefreshRefusedWhileSessionsLive(t *testing.T) {
	for _, prec := range precisions {
		t.Run(precName(prec), func(t *testing.T) { refreshRefused(t, precisionConfig(prec)) })
	}
}

func refreshRefused(t *testing.T, cfg Config) {
	box, l := allocSetup(t)
	err := comm.Run(1, func(c *comm.Comm) error {
		rc, err := NewRankContext(c, box, l, comm.NoExchange)
		if err != nil {
			return err
		}
		model, err := NewModel(cfg)
		if err != nil {
			return err
		}
		eng, err := NewInference(model)
		if err != nil {
			return err
		}
		ses := eng.Session()
		// A view holds the core itself, not copies of its blocks or their
		// panel pointers: whatever a Refresh re-packs, no view is left on
		// the old panels (tensor's TestRepackAfterTierToggleReachesEveryHolder).
		if (eng.p64 != nil && ses.p64.core != eng.p64.core) || (eng.p32 != nil && ses.p32.core != eng.p32.core) {
			return fmt.Errorf("session view copied the compiled core instead of sharing it")
		}
		x := waveField(rc.Graph)
		want := ses.Predict(rc, x).Clone()

		// Hammer predictions on the view while the root keeps asking to
		// refresh: every attempt must refuse, and (under -race) refusing
		// must be invisible to the in-flight Predicts.
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
				}
				ses.Predict(rc, x)
			}
		}()
		for i := 0; i < 50; i++ {
			if err := eng.Refresh(); !errors.Is(err, ErrLiveSessions) {
				close(stop)
				<-done
				return fmt.Errorf("Refresh with a live session: err = %v, want ErrLiveSessions", err)
			}
		}
		close(stop)
		<-done

		// A view never refreshes, even once quiesced — the compile belongs
		// to the root.
		if err := ses.Refresh(); !errors.Is(err, ErrLiveSessions) {
			return fmt.Errorf("Refresh on a session view: err = %v, want ErrLiveSessions", err)
		}
		// A second view keeps the root pinned after the first releases.
		ses2 := eng.Session()
		ses.Release()
		ses.Release() // double release is a no-op, not a count underflow
		if err := eng.Refresh(); !errors.Is(err, ErrLiveSessions) {
			return fmt.Errorf("Refresh with one of two sessions released: err = %v, want ErrLiveSessions", err)
		}
		ses2.Release()
		if err := eng.Refresh(); err != nil {
			return fmt.Errorf("Refresh after releasing every session: %v", err)
		}
		// The refreshed compile still serves, bitwise as before (the
		// parameters did not change), through a fresh view.
		ses3 := eng.Session()
		defer ses3.Release()
		if d := bitDiff(want, ses3.Predict(rc, x)); d != 0 {
			return fmt.Errorf("post-refresh session prediction differs in %d values", d)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
