package cluster

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/faults"
	"repro/internal/gpusim"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/serving"
	"repro/internal/workload"
)

func opts() core.Options {
	return core.Options{Mode: core.ModeFull, Params: estimator.DefaultParams()}
}

func run(t testing.TB, cfg Config, rate float64, n int, seed int64) (*Cluster, serving.Result) {
	t.Helper()
	env := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), "azure-code")
	c := New(env, cfg)
	res := env.Run(c, workload.Generate(workload.AzureCode, rate, n, seed))
	c.CheckDrained()
	return c, res
}

func TestClusterCompletesAll(t *testing.T) {
	c, res := run(t, Config{Replicas: 2, Policy: LeastLoaded, Options: opts()}, 6, 60, 1)
	if res.Summary.Requests != 60 {
		t.Fatalf("completed %d/60", res.Summary.Requests)
	}
	counts := c.Replicas()
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != 60 {
		t.Fatalf("replica counts %v sum to %d", counts, total)
	}
	if !strings.HasPrefix(res.System, "cluster-2x") {
		t.Fatalf("name = %s", res.System)
	}
}

func TestRoundRobinBalances(t *testing.T) {
	c, _ := run(t, Config{Replicas: 3, Policy: RoundRobin, Options: opts()}, 6, 60, 2)
	for _, n := range c.Replicas() {
		if n != 20 {
			t.Fatalf("round-robin counts = %v", c.Replicas())
		}
	}
}

func TestLeastLoadedBeatsRoundRobinOnSkewedLoad(t *testing.T) {
	// With heavy-tailed input lengths, token-aware routing should give
	// no worse P90 normalized TTFT than blind round-robin.
	mk := func(p Policy) float64 {
		env := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), "azure-code")
		c := New(env, Config{Replicas: 2, Policy: p, Options: opts()})
		res := env.Run(c, workload.Generate(workload.AzureCode, 8, 120, 3))
		c.CheckDrained()
		return res.Summary.P90NormTTFT
	}
	rr := mk(RoundRobin)
	ll := mk(LeastLoaded)
	if ll > rr*1.3 {
		t.Fatalf("least-loaded P90 %.2f much worse than round-robin %.2f", ll, rr)
	}
}

func TestJSQPolicyRuns(t *testing.T) {
	_, res := run(t, Config{Replicas: 2, Policy: JoinShortestQueue, Options: opts()}, 6, 40, 4)
	if res.Summary.Requests != 40 {
		t.Fatalf("completed %d", res.Summary.Requests)
	}
}

func TestScaleOutIncreasesCapacity(t *testing.T) {
	// At a rate that saturates one GPU, two replicas must serve with
	// much lower latency and no worse SLO attainment.
	env1 := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), "azure-code")
	one := core.New(env1, opts())
	res1 := env1.Run(one, workload.Generate(workload.AzureCode, 11, 120, 5))

	env2 := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), "azure-code")
	two := New(env2, Config{Replicas: 2, Policy: LeastLoaded, Options: opts()})
	res2 := env2.Run(two, workload.Generate(workload.AzureCode, 11, 120, 5))
	two.CheckDrained()

	if res2.Summary.SLOAttainment < res1.Summary.SLOAttainment-0.05 {
		t.Fatalf("2 replicas SLO %.2f well below 1 replica %.2f",
			res2.Summary.SLOAttainment, res1.Summary.SLOAttainment)
	}
	if res2.Summary.MeanTTFT > res1.Summary.MeanTTFT*0.7 {
		t.Fatalf("2 replicas TTFT %.3f not well below 1 replica %.3f",
			res2.Summary.MeanTTFT, res1.Summary.MeanTTFT)
	}
}

func TestDeterminism(t *testing.T) {
	_, a := run(t, DefaultConfigWith(opts()), 5, 40, 9)
	_, b := run(t, DefaultConfigWith(opts()), 5, 40, 9)
	if a.Summary != b.Summary {
		t.Fatalf("non-deterministic: %+v vs %+v", a.Summary, b.Summary)
	}
}

// DefaultConfigWith returns the default config with custom options.
func DefaultConfigWith(o core.Options) Config {
	c := DefaultConfig()
	c.Options = o
	return c
}

// TestSerialParallelByteIdentical pins that the worker count never
// reaches the output: the full Result (every per-request record, GPU
// counters, makespan) and the per-replica completion counts are
// byte-identical at every Workers value. Replicas advance inline today,
// so this holds by construction; the test guards the contract for a
// future parallel path.
func TestSerialParallelByteIdentical(t *testing.T) {
	ref, refCounts := func() (serving.Result, []int) {
		cfg := Config{Replicas: 4, Policy: RoundRobin, Options: opts(), Workers: 1}
		c, res := run(t, cfg, 10, 80, 11)
		return res, c.Replicas()
	}()
	for _, w := range []int{2, 4, 0} {
		cfg := Config{Replicas: 4, Policy: RoundRobin, Options: opts(), Workers: w}
		c, res := run(t, cfg, 10, 80, 11)
		if !reflect.DeepEqual(ref, res) {
			t.Fatalf("workers=%d diverged from serial: %+v vs %+v", w, res.Summary, ref.Summary)
		}
		if !reflect.DeepEqual(refCounts, c.Replicas()) {
			t.Fatalf("workers=%d replica counts %v, serial %v", w, c.Replicas(), refCounts)
		}
	}
}

// TestSerialParallelByteIdenticalUnderFaults extends the equivalence to
// the resilience path: crash, failover, recovery, and stale-completion
// swallowing must all land identically at every worker count.
func TestSerialParallelByteIdenticalUnderFaults(t *testing.T) {
	mk := func(workers int) (serving.Result, metrics.Resilience, int) {
		env := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), "azure-code")
		c := New(env, Config{Replicas: 3, Policy: LeastLoaded, Options: opts(), Workers: workers})
		inj := faults.NewInjector(env.Sim, faults.Schedule{Events: []faults.Event{
			{At: 1.2, Kind: faults.KindReplicaCrash, Replica: 1, Recovery: 3},
			{At: 2.0, Kind: faults.KindSMDegrade, Replica: 0, FirstSM: 0, NumSMs: 40, Throttle: 0.5, Duration: 1},
		}})
		c.AttachFaults(inj, core.DefaultWatchdog())
		inj.Arm()
		res := env.Run(c, workload.Generate(workload.AzureCode, 8, 90, 13))
		c.CheckDrained()
		return res, c.Resilience(), c.StaleCompletions()
	}
	ref, refRl, refStale := mk(1)
	if ref.Summary.Requests+ref.Shed != 90 {
		t.Fatalf("faulty run lost requests: %d completed + %d shed", ref.Summary.Requests, ref.Shed)
	}
	for _, w := range []int{3, 0} {
		res, rl, stale := mk(w)
		if !reflect.DeepEqual(ref, res) {
			t.Fatalf("workers=%d result diverged from serial", w)
		}
		if rl != refRl || stale != refStale {
			t.Fatalf("workers=%d resilience %+v/%d, serial %+v/%d", w, rl, stale, refRl, refStale)
		}
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	env := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), "sharegpt")
	for _, cfg := range []Config{
		{Replicas: 0, Policy: RoundRobin},
		{Replicas: 2, Policy: "nope"},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v accepted", cfg)
				}
			}()
			cfg.Options = opts()
			New(env, cfg)
		}()
	}
}

func TestGPUStats(t *testing.T) {
	c, _ := run(t, Config{Replicas: 2, Policy: RoundRobin, Options: opts()}, 4, 30, 7)
	stats := c.GPUStats()
	if len(stats) != 2 {
		t.Fatalf("stats for %d replicas", len(stats))
	}
	for i, s := range stats {
		if s.FLOPs <= 0 {
			t.Fatalf("replica %d did no work", i)
		}
	}
}
