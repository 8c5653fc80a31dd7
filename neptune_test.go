package neptune

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.BufferSize = 4096
	cfg.FlushInterval = 2 * time.Millisecond
	cfg.VerifyOrdering = true
	return cfg
}

func TestBuilderAndRunEndToEnd(t *testing.T) {
	spec, err := NewGraph("pipeline").
		Source("gen", 1).
		Processor("double", 2).
		Processor("sum", 1).
		Link("gen", "double", "round-robin").
		Link("double", "sum", "").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	const n = 2_000
	var emitted atomic.Int64
	var total atomic.Int64
	job, err := NewJob(spec, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	job.SetSource("gen", func(int) Source {
		return SourceFunc(func(ctx *OpContext) error {
			i := emitted.Add(1) - 1
			if i >= n {
				return io.EOF
			}
			p := ctx.NewPacket()
			p.AddInt64("v", i)
			return ctx.EmitDefault(p)
		})
	})
	job.SetProcessor("double", func(int) Processor {
		return ProcessorFunc(func(ctx *OpContext, p *Packet) error {
			v, err := p.Int64("v")
			if err != nil {
				return err
			}
			out := ctx.NewPacket()
			out.AddInt64("v", 2*v)
			return ctx.EmitDefault(out)
		})
	})
	job.SetProcessor("sum", func(int) Processor {
		return ProcessorFunc(func(ctx *OpContext, p *Packet) error {
			v, err := p.Int64("v")
			if err != nil {
				return err
			}
			total.Add(v)
			return nil
		})
	})
	if err := Run(job, 30*time.Second, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	want := int64(n) * (n - 1) // sum of 2*i for i in [0, n)
	if total.Load() != want {
		t.Fatalf("sum = %d, want %d", total.Load(), want)
	}
}

func TestBuilderValidation(t *testing.T) {
	if _, err := NewGraph("bad").Processor("p", 1).Build(); err == nil {
		t.Fatal("processor-only graph accepted")
	}
	if _, err := NewGraph("bad").Source("s", 1).Processor("p", 1).
		Link("s", "ghost", "").Build(); err == nil {
		t.Fatal("dangling link accepted")
	}
	// Builder remains usable after Build.
	b := NewGraph("g").Source("s", 1).Processor("p", 1).Link("s", "p", "")
	s1, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	b.Processor("q", 1).Link("p", "q", "broadcast")
	s2, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(s1.Operators) != 2 || len(s2.Operators) != 3 {
		t.Fatalf("builder state leaked: %d/%d", len(s1.Operators), len(s2.Operators))
	}
}

func TestNamedLinkSplit(t *testing.T) {
	spec, err := NewGraph("split").
		Source("src", 1).
		Processor("high", 1).
		Processor("low", 1).
		NamedLink("hi", "src", "high", "").
		NamedLink("lo", "src", "low", "").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	var i atomic.Int64
	var hiN, loN atomic.Int64
	job, err := NewJob(spec, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	job.SetSource("src", func(int) Source {
		return SourceFunc(func(ctx *OpContext) error {
			v := i.Add(1) - 1
			if v >= 1000 {
				return io.EOF
			}
			p := ctx.NewPacket()
			p.AddInt64("v", v)
			if v >= 500 {
				return ctx.Emit("hi", p)
			}
			return ctx.Emit("lo", p)
		})
	})
	job.SetProcessor("high", func(int) Processor {
		return ProcessorFunc(func(ctx *OpContext, p *Packet) error { hiN.Add(1); return nil })
	})
	job.SetProcessor("low", func(int) Processor {
		return ProcessorFunc(func(ctx *OpContext, p *Packet) error { loN.Add(1); return nil })
	})
	if err := Run(job, 30*time.Second, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if hiN.Load() != 500 || loN.Load() != 500 {
		t.Fatalf("split = %d/%d", hiN.Load(), loN.Load())
	}
}

// pinPasses numbers the passes of TestCustomPartitionerViaPublicAPI. The
// partitioner registry is process-global, so each pass (go test -count=N)
// registers its own name.
var pinPasses atomic.Int64

func TestCustomPartitionerViaPublicAPI(t *testing.T) {
	type always struct{ n int }
	route := func(a *always) Partitioner { return partitionerFunc(func(n int) int { return a.n % n }) }
	pin := fmt.Sprintf("pin%d", pinPasses.Add(1))
	if err := RegisterPartitioner(pin, func(arg string) (Partitioner, error) {
		return route(&always{n: 1}), nil
	}); err != nil {
		t.Fatal(err)
	}
	spec, err := NewGraph("pinned").
		Source("s", 1).
		Processor("p", 3).
		Link("s", "p", pin).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]atomic.Int64, 3)
	job, err := NewJob(spec, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var i atomic.Int64
	job.SetSource("s", func(int) Source {
		return SourceFunc(func(ctx *OpContext) error {
			if i.Add(1) > 300 {
				return io.EOF
			}
			p := ctx.NewPacket()
			p.AddInt64("v", i.Load())
			return ctx.EmitDefault(p)
		})
	})
	job.SetProcessor("p", func(idx int) Processor {
		return ProcessorFunc(func(ctx *OpContext, p *Packet) error {
			counts[idx].Add(1)
			return nil
		})
	})
	if err := Run(job, 30*time.Second, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if counts[1].Load() != 300 || counts[0].Load() != 0 || counts[2].Load() != 0 {
		t.Fatalf("pin partitioner violated: %d/%d/%d", counts[0].Load(), counts[1].Load(), counts[2].Load())
	}
	if err := RegisterPartitioner(pin, nil); err == nil {
		t.Fatal("duplicate registration accepted")
	}
}

// partitionerFunc adapts a selector to Partitioner for tests.
type partitionerFunc func(n int) int

func (partitionerFunc) Name() string { return "test" }
func (f partitionerFunc) Route(_ *Packet, n int, dst []int) []int {
	return append(dst, f(n))
}

func TestMultiEnginePublicAPI(t *testing.T) {
	cfg := testConfig()
	e1, err := NewEngine("a", cfg)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := NewEngine("b", cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := NewGraph("two").
		Source("s", 1).
		Processor("sink", 1).
		Link("s", "sink", "").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	var i, got atomic.Int64
	job, err := NewJob(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	job.SetSource("s", func(int) Source {
		return SourceFunc(func(ctx *OpContext) error {
			if i.Add(1) > 500 {
				return io.EOF
			}
			p := ctx.NewPacket()
			p.AddInt64("v", i.Load())
			return ctx.EmitDefault(p)
		})
	})
	job.SetProcessor("sink", func(int) Processor {
		return ProcessorFunc(func(ctx *OpContext, p *Packet) error { got.Add(1); return nil })
	})
	place := func(op string, _ int) int {
		if op == "sink" {
			return 1
		}
		return 0
	}
	if err := job.LaunchOn([]*Engine{e1, e2}, place, NewInprocBridger(0, 0)); err != nil {
		t.Fatal(err)
	}
	job.WaitSources(30 * time.Second)
	if err := job.Stop(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got.Load() != 500 {
		t.Fatalf("sink saw %d packets", got.Load())
	}
}

func TestLoadGraphMissingFile(t *testing.T) {
	if _, err := LoadGraph("/nonexistent/graph.json"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestRunSurfacesLaunchError(t *testing.T) {
	spec, err := NewGraph("g").Source("s", 1).Processor("p", 1).Link("s", "p", "").Build()
	if err != nil {
		t.Fatal(err)
	}
	job, err := NewJob(spec, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// No factories installed: Launch must fail and Run must surface it.
	if err := Run(job, time.Second, time.Second); err == nil {
		t.Fatal("Run swallowed the launch error")
	}
}

// TestConcurrentJobsSharedProcess runs several independent jobs in one
// process, the paper's concurrent-jobs scenario at unit scale.
func TestConcurrentJobsSharedProcess(t *testing.T) {
	const jobs, n = 4, 1_000
	var wg sync.WaitGroup
	errs := make(chan error, jobs)
	for jIdx := 0; jIdx < jobs; jIdx++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			spec, err := NewGraph("job").
				Source("s", 1).
				Processor("sink", 1).
				Link("s", "sink", "").
				Build()
			if err != nil {
				errs <- err
				return
			}
			var i, got atomic.Int64
			job, err := NewJob(spec, testConfig())
			if err != nil {
				errs <- err
				return
			}
			job.SetSource("s", func(int) Source {
				return SourceFunc(func(ctx *OpContext) error {
					if i.Add(1) > n {
						return io.EOF
					}
					p := ctx.NewPacket()
					p.AddInt64("v", i.Load()+seed)
					return ctx.EmitDefault(p)
				})
			})
			job.SetProcessor("sink", func(int) Processor {
				return ProcessorFunc(func(ctx *OpContext, p *Packet) error { got.Add(1); return nil })
			})
			if err := Run(job, 30*time.Second, 30*time.Second); err != nil {
				errs <- err
				return
			}
			if got.Load() != n {
				errs <- errors.New("lost packets in concurrent job")
			}
		}(int64(jIdx) << 32)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
