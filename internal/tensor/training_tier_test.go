package tensor_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"meshgnn/internal/comm"
	"meshgnn/internal/gnn"
	"meshgnn/internal/graph"
	"meshgnn/internal/mesh"
	"meshgnn/internal/nn"
	"meshgnn/internal/parallel"
	"meshgnn/internal/partition"
	"meshgnn/internal/tensor"
)

// TestTrainingBitwiseOnEveryRung trains internal/gnn's golden configuration
// (TestGoldenLossesBitwise: SmallConfig on a 3³-element p = 2 periodic box
// cut into two slab ranks, Adam, 12 steps) on the go rung and on every SIMD
// rung this machine has, through the tier hook that only this directory's
// tests can reach. Every rung must reproduce the golden losses bit for bit,
// and every parameter each rank ends with must be bitwise the top rung's:
// the small model's forward, input gradient and weight gradient each have
// one definition that every rung replays, so the golden file does not
// depend on the rung that wrote it.
func TestTrainingBitwiseOnEveryRung(t *testing.T) {
	want := readGoldenLosses(t, "../gnn/testdata/golden_losses.txt")
	parallel.Configure(1, true)
	defer parallel.Configure(0, true)
	box, err := mesh.NewBox(3, 3, 3, 2, [3]bool{true, true, true})
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.NewCartesian(box, 2, partition.Slabs)
	if err != nil {
		t.Fatal(err)
	}
	locals, err := graph.BuildAll(box, part)
	if err != nil {
		t.Fatal(err)
	}
	type trained struct{ losses, params []float64 }
	train := func() []trained {
		res, err := comm.RunCollect(2, func(c *comm.Comm) (trained, error) {
			var out trained
			rc, err := gnn.NewRankContext(c, box, locals[c.Rank()], comm.NeighborAllToAll)
			if err != nil {
				return out, err
			}
			model, err := gnn.NewModel(gnn.SmallConfig())
			if err != nil {
				return out, err
			}
			tr := gnn.NewTrainer(model, nn.NewAdam(1e-3))
			x := waveField(rc.Graph)
			for range want {
				out.losses = append(out.losses, tr.Step(rc, x, x))
			}
			for _, p := range model.Params() {
				out.params = append(out.params, p.W.Data...)
			}
			return out, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	var top []trained
	for k := tensor.CPUTier(); k >= tensor.TierGo; k-- {
		prev := tensor.SetKernelTier(k)
		got := train()
		tensor.SetKernelTier(prev)
		for i, v := range got[0].losses {
			if bits := math.Float64bits(v); bits != want[i] {
				t.Fatalf("rung %v: step %d loss %.17g (%016x), golden %016x", k, i+1, v, bits, want[i])
			}
		}
		if top == nil {
			top = got
			continue
		}
		for r := range got {
			for i, v := range got[r].params {
				if math.Float64bits(v) != math.Float64bits(top[r].params[i]) {
					t.Fatalf("rung %v, rank %d: parameter value %d is %v, the top rung trained %v (bitwise)",
						k, r, i, v, top[r].params[i])
				}
			}
		}
	}
}

// waveField is the golden run's input, internal/gnn's waveField written
// out again.
func waveField(l *graph.Local) *tensor.Matrix {
	x := tensor.New(l.NumLocal(), 3)
	for i := 0; i < l.NumLocal(); i++ {
		cx, cy, cz := l.Coords.At(i, 0), l.Coords.At(i, 1), l.Coords.At(i, 2)
		x.Set(i, 0, math.Sin(2*math.Pi*cx+0.3)*math.Cos(2*math.Pi*cy-0.2))
		x.Set(i, 1, -math.Cos(1.7*cx+0.5)*math.Sin(2.3*cy+1.1))
		x.Set(i, 2, 0.3*math.Sin(1.9*cz+0.7)+0.1*cx)
	}
	return x
}

// readGoldenLosses parses a golden loss file: one float64 bit pattern in
// hex per line, followed by its decimal rendering; # starts a comment.
func readGoldenLosses(t *testing.T, path string) []uint64 {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var bits []uint64
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseUint(strings.Fields(line)[0], 16, 64)
		if err != nil {
			t.Fatalf("corrupt golden line %q: %v", line, err)
		}
		bits = append(bits, v)
	}
	if len(bits) == 0 {
		t.Fatalf("%s holds no losses", path)
	}
	return bits
}

// largeParamsFNV is the FNV-64a hash of every parameter rank 0 holds after
// largeTraining; every rung trains to it.
const largeParamsFNV = 0x74f0b72f0f52d10c

// largeTraining trains LargeConfig (H = 32) for three Adam steps on the
// 4×4×4-element p = 2 periodic box cut into two slab ranks, and returns
// the FNV-64a hash of rank 0's parameters, each value's little-endian bits
// in Params order.
func largeTraining(t *testing.T) uint64 {
	t.Helper()
	parallel.Configure(1, true)
	defer parallel.Configure(0, true)
	box, err := mesh.NewBox(4, 4, 4, 2, [3]bool{true, true, true})
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.NewCartesian(box, 2, partition.Slabs)
	if err != nil {
		t.Fatal(err)
	}
	locals, err := graph.BuildAll(box, part)
	if err != nil {
		t.Fatal(err)
	}
	res, err := comm.RunCollect(2, func(c *comm.Comm) (uint64, error) {
		rc, err := gnn.NewRankContext(c, box, locals[c.Rank()], comm.NeighborAllToAll)
		if err != nil {
			return 0, err
		}
		model, err := gnn.NewModel(gnn.LargeConfig())
		if err != nil {
			return 0, err
		}
		tr := gnn.NewTrainer(model, nn.NewAdam(1e-3))
		x := waveField(rc.Graph)
		for range 3 {
			tr.Step(rc, x, x)
		}
		h := fnv.New64a()
		var b [8]byte
		for _, p := range model.Params() {
			for _, v := range p.W.Data {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
		}
		return h.Sum64(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return res[0]
}

// TestLargeTrainingBitsOnEveryRung pins the large model's training bits
// the way golden_losses.txt pins the small model's (H = 8): every
// parameter after largeTraining, hashed, on the go rung and on every SIMD
// rung this machine has — one hash, as every float64 product has one
// definition.
func TestLargeTrainingBitsOnEveryRung(t *testing.T) {
	for k := tensor.CPUTier(); k >= tensor.TierGo; k-- {
		prev := tensor.SetKernelTier(k)
		got := largeTraining(t)
		tensor.SetKernelTier(prev)
		if got != largeParamsFNV {
			t.Errorf("rung %v: parameters hash to %#016x, want %#016x", k, got, uint64(largeParamsFNV))
		}
	}
}
