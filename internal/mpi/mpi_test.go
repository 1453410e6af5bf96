package mpi

import (
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"
)

func TestWorldValidation(t *testing.T) {
	t.Parallel()
	if _, err := NewWorld(0, 4, EDRFabric()); err == nil {
		t.Error("zero-size world accepted")
	}
	if _, err := NewWorld(4, 0, EDRFabric()); err == nil {
		t.Error("zero ranks-per-node accepted")
	}
}

func TestSendRecvMovesData(t *testing.T) {
	t.Parallel()
	w, err := NewWorld(2, 4, EDRFabric())
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(r *Rank) error {
		if r.Rank() == 0 {
			return r.Send(1, 7, []float32{1, 2, 3})
		}
		buf := make([]float32, 3)
		if err := r.Recv(0, 7, buf); err != nil {
			return err
		}
		if buf[0] != 1 || buf[1] != 2 || buf[2] != 3 {
			t.Errorf("received %v", buf)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvSynchronisesClock(t *testing.T) {
	t.Parallel()
	w, err := NewWorld(2, 4, EDRFabric())
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(r *Rank) error {
		if r.Rank() == 0 {
			r.Advance(1.0) // slow sender
			return r.Send(1, 0, []float32{42})
		}
		buf := make([]float32, 1)
		if err := r.Recv(0, 0, buf); err != nil {
			return err
		}
		if r.Now() < 1.0 {
			t.Errorf("receiver clock %v, must be >= sender's 1.0", r.Now())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendValidation(t *testing.T) {
	t.Parallel()
	w, _ := NewWorld(2, 4, EDRFabric())
	err := w.Run(func(r *Rank) error {
		if r.Rank() == 0 {
			if err := r.Send(5, 0, nil); err == nil {
				t.Error("send to invalid rank accepted")
			}
			if err := r.Send(0, 0, nil); err == nil {
				t.Error("self-send accepted")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvSizeMismatch(t *testing.T) {
	t.Parallel()
	w, _ := NewWorld(2, 4, EDRFabric())
	err := w.Run(func(r *Rank) error {
		if r.Rank() == 0 {
			return r.Send(1, 0, []float32{1, 2})
		}
		buf := make([]float32, 3)
		if err := r.Recv(0, 0, buf); err == nil {
			t.Error("size mismatch accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierSynchronisesToSlowest(t *testing.T) {
	t.Parallel()
	w, _ := NewWorld(8, 4, EDRFabric())
	err := w.Run(func(r *Rank) error {
		r.Advance(float64(r.Rank()) * 0.1) // rank 7 is slowest: 0.7
		after, err := r.Barrier()
		if err != nil {
			return err
		}
		if after < 0.7 {
			t.Errorf("rank %d released at %v, want >= 0.7", r.Rank(), after)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierReusable(t *testing.T) {
	t.Parallel()
	w, _ := NewWorld(4, 4, EDRFabric())
	err := w.Run(func(r *Rank) error {
		for i := 0; i < 20; i++ {
			r.Advance(0.001 * float64(r.Rank()+1))
			if _, err := r.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceSum(t *testing.T) {
	t.Parallel()
	w, _ := NewWorld(6, 4, EDRFabric())
	var checks int32
	err := w.Run(func(r *Rank) error {
		data := []float64{float64(r.Rank()), 1}
		if err := r.AllreduceSum(data); err != nil {
			return err
		}
		// sum of 0..5 = 15; sum of ones = 6
		if data[0] != 15 || data[1] != 6 {
			t.Errorf("rank %d: allreduce = %v", r.Rank(), data)
		}
		atomic.AddInt32(&checks, 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checks != 6 {
		t.Fatalf("only %d ranks checked", checks)
	}
}

func TestAllreduceRepeated(t *testing.T) {
	t.Parallel()
	w, _ := NewWorld(4, 4, EDRFabric())
	err := w.Run(func(r *Rank) error {
		for round := 1; round <= 5; round++ {
			data := []float64{float64(round)}
			if err := r.AllreduceSum(data); err != nil {
				return err
			}
			if data[0] != float64(4*round) {
				t.Errorf("round %d: got %v", round, data[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvExchange(t *testing.T) {
	t.Parallel()
	w, _ := NewWorld(2, 4, EDRFabric())
	err := w.Run(func(r *Rank) error {
		partner := 1 - r.Rank()
		send := []float32{float32(r.Rank() + 10)}
		recv := make([]float32, 1)
		if err := r.SendRecv(partner, 3, send, recv); err != nil {
			return err
		}
		if recv[0] != float32(partner+10) {
			t.Errorf("rank %d: exchanged %v", r.Rank(), recv[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIntraNodeTransfersAreCheaper(t *testing.T) {
	t.Parallel()
	nm := EDRFabric()
	intra := nm.transferTime(1<<20, true)
	inter := nm.transferTime(1<<20, false)
	if intra >= inter {
		t.Fatalf("intra-node %v not cheaper than inter-node %v", intra, inter)
	}
}

func TestTransferTimeScalesWithSize(t *testing.T) {
	t.Parallel()
	nm := EDRFabric()
	small := nm.transferTime(1<<10, false)
	big := nm.transferTime(1<<24, false)
	if big <= small {
		t.Fatal("transfer time does not grow with message size")
	}
	// Latency floor for tiny messages.
	if small < nm.LatencySec {
		t.Fatal("transfer below latency floor")
	}
}

func TestNodeAssignment(t *testing.T) {
	t.Parallel()
	w, _ := NewWorld(8, 4, EDRFabric())
	err := w.Run(func(r *Rank) error {
		want := r.Rank() / 4
		if r.Node() != want {
			t.Errorf("rank %d on node %d, want %d", r.Rank(), r.Node(), want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunPropagatesErrors(t *testing.T) {
	t.Parallel()
	w, _ := NewWorld(3, 4, EDRFabric())
	err := w.Run(func(r *Rank) error {
		if r.Rank() == 1 {
			return errTest
		}
		return nil
	})
	// Run joins rank errors with errors.Join: match with errors.Is.
	if !errors.Is(err, errTest) {
		t.Fatalf("Run returned %v", err)
	}
}

// TestRunJoinsAllRankErrors: every failing rank's error is represented
// in the joined result, not just the first.
func TestRunJoinsAllRankErrors(t *testing.T) {
	t.Parallel()
	w, _ := NewWorld(4, 4, EDRFabric())
	errA := errors.New("rank 1 exploded")
	errB := errors.New("rank 3 exploded")
	err := w.Run(func(r *Rank) error {
		switch r.Rank() {
		case 1:
			return errA
		case 3:
			return errB
		}
		return nil
	})
	if !errors.Is(err, errA) || !errors.Is(err, errB) {
		t.Fatalf("joined error %v missing a rank error", err)
	}
}

// TestAllreduceLengthMismatchReturnsError: mismatched slice lengths are
// an error on the offending rank (not a panic), and its peers observe
// ErrDeadline rather than hanging.
func TestAllreduceLengthMismatchReturnsError(t *testing.T) {
	t.Parallel()
	w, _ := NewWorld(3, 4, EDRFabric())
	err := w.Run(func(r *Rank) error {
		n := 2
		if r.Rank() == 2 {
			n = 5 // disagrees with the others
		}
		return r.AllreduceSum(make([]float64, n))
	})
	if err == nil {
		t.Fatal("mismatched allreduce succeeded")
	}
	if !strings.Contains(err.Error(), "allreduce length") {
		t.Errorf("no length-mismatch diagnosis in %v", err)
	}
}

var errTest = &testError{}

type testError struct{}

func (*testError) Error() string { return "boom" }

func TestAdvanceToNeverGoesBackwards(t *testing.T) {
	t.Parallel()
	w, _ := NewWorld(1, 1, EDRFabric())
	err := w.Run(func(r *Rank) error {
		r.Advance(5)
		r.AdvanceTo(3)
		if math.Abs(r.Now()-5) > 1e-12 {
			t.Errorf("clock moved backwards to %v", r.Now())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
