package main

import (
	"flag"
	"fmt"
	"runtime"
	"time"

	"extdict/internal/cluster"
	"extdict/internal/dist"
	"extdict/internal/mat"
	"extdict/internal/matio"
	"extdict/internal/perf"
	"extdict/internal/solver"
	"extdict/internal/tune"
)

// cmdLasso solves min ‖A·x - y‖² + λ‖x‖₁ on raw, transformed, or SGD
// operators and reports solution statistics.
func cmdLasso(args []string) error {
	fs := flag.NewFlagSet("lasso", flag.ContinueOnError)
	in := fs.String("in", "", "data matrix (.csv or .edm); required")
	yPath := fs.String("y", "", "observation vector file (single CSV column); required")
	lambda := fs.Float64("lambda", 0, "ℓ₁ weight (0 = 0.05·‖Aᵀy‖∞)")
	eps := fs.Float64("eps", 0.1, "transformation error tolerance")
	raw := fs.Bool("raw", false, "iterate on the untransformed AᵀA baseline")
	sgd := fs.Int("sgd", 0, "use the SGD baseline with this batch size")
	iters := fs.Int("iters", 500, "maximum iterations")
	seed := fs.Uint64("seed", 1, "random seed")
	faults := fs.Uint64("faults", 0, "inject a deterministic fault schedule drawn from this seed and recover through the supervisor (0 = off)")
	out := fs.String("out", "", "optional path to write the solution vector")
	spec := transformFlags(fs, eps, raw, sgd, seed)
	nodes, cores := platformFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *yPath == "" {
		return fmt.Errorf("lasso: -in and -y are required")
	}
	a, err := loadNormalized(*in)
	if err != nil {
		return err
	}
	y, err := loadVector(*yPath, a.Rows)
	if err != nil {
		return err
	}
	plat := cluster.NewPlatform(*nodes, *cores)

	build, err := buildOperatorOn(a, plat, spec())
	if err != nil {
		return err
	}
	if *lambda <= 0 {
		*lambda = 0.05 * mat.NormInf(a.MulVecT(y, nil))
	}
	opts := solver.LassoOpts{Lambda: *lambda, MaxIters: *iters}
	aty, y2 := a.MulVecT(y, nil), mat.Dot(y, y)
	op := build(cluster.NewComm(plat))
	sw := perf.StartWall()
	var res solver.LassoResult
	if *faults != 0 {
		// Each lasso iteration is one Allreduce = two collective phases.
		plan := cliFaultPlan(*faults, plat.Topology.P(), int64(2*(*iters)))
		comm := cluster.NewComm(plat)
		comm.InstallFaultPlan(plan)
		var rec solver.Recovery
		res, rec, err = solver.SupervisedLasso(comm, build, aty, y2, opts, solver.SupervisorOpts{})
		if err != nil {
			return err
		}
		printRecovery(plan, rec)
	} else {
		res = solver.Lasso(op, aty, y2, opts)
	}
	nz := 0
	for _, v := range res.X {
		if v != 0 {
			nz++
		}
	}
	fmt.Printf("%s on %s: %d iters (converged=%v), objective %.6g, %d/%d nonzeros\n",
		op.Name(), plat.Topology, res.Iters, res.Converged, res.Objective, nz, len(res.X))
	fmt.Printf("modeled time %.3f ms, wall %v\n",
		res.Stats.ModeledTime*1e3, sw.Elapsed().Round(time.Microsecond))
	if *out != "" {
		xm := mat.NewDenseData(len(res.X), 1, res.X)
		if err := matio.Save(*out, xm); err != nil {
			return err
		}
		fmt.Printf("wrote solution to %s\n", *out)
	}
	return nil
}

// cmdCluster runs spectral partitioning of the data columns.
func cmdCluster(args []string) error {
	fs := flag.NewFlagSet("cluster", flag.ContinueOnError)
	in := fs.String("in", "", "data matrix (.csv or .edm); required")
	k := fs.Int("k", 2, "number of clusters")
	eps := fs.Float64("eps", 0.1, "transformation error tolerance")
	raw := fs.Bool("raw", false, "iterate on the untransformed AᵀA baseline")
	seed := fs.Uint64("seed", 1, "random seed")
	spec := transformFlags(fs, eps, raw, nil, seed)
	nodes, cores := platformFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("cluster: -in is required")
	}
	a, err := loadNormalized(*in)
	if err != nil {
		return err
	}
	plat := cluster.NewPlatform(*nodes, *cores)
	op, err := buildOperator(a, plat, spec())
	if err != nil {
		return err
	}
	res := solver.SpectralCluster(op, solver.SpectralOpts{Clusters: *k, Seed: *seed})
	sizes := make([]int, *k)
	for _, c := range res.Assign {
		sizes[c]++
	}
	fmt.Printf("%s on %s: %d columns into %d clusters, sizes %v\n",
		op.Name(), plat.Topology, len(res.Assign), *k, sizes)
	fmt.Printf("k-means inertia %.4f; %d power iterations, modeled %.3f ms\n",
		res.Inertia, res.Eigen.Iters, res.Eigen.Stats.ModeledTime*1e3)
	return nil
}

// opSpec collects the operator-selection knobs shared by the solver
// subcommands: the classic raw/SGD switches plus the transform choice.
type opSpec struct {
	eps       float64
	raw       bool
	sgdBatch  int
	seed      uint64
	transform string // "exd" or "auto"
}

// transformFlags registers the -transform flag, which rejects any family
// but exd and auto at parse time, and returns a closure assembling the spec
// after parsing.
func transformFlags(fs *flag.FlagSet, eps *float64, raw *bool, sgd *int, seed *uint64) func() opSpec {
	transform := "exd"
	fs.Func("transform", "transformed operator: exd (default), or auto (modeled-cost choice between raw AᵀA and exd)", func(v string) error {
		if v != "exd" && v != "auto" {
			return fmt.Errorf("unknown transform family %q (have exd, auto)", v)
		}
		transform = v
		return nil
	})
	return func() opSpec {
		s := opSpec{eps: *eps, seed: *seed, transform: transform}
		if raw != nil {
			s.raw = *raw
		}
		if sgd != nil {
			s.sgdBatch = *sgd
		}
		return s
	}
}

// buildOperatorOn assembles a factory for the requested Gram operator over
// a. The factory constructs the operator on any communicator, which is what
// lets the fault supervisor rebuild it on the shrunk survivor communicator
// after a crash; the expensive tune-and-fit preprocessing runs once, up
// front, and the factory only re-partitions.
func buildOperatorOn(a *mat.Dense, plat cluster.Platform, spec opSpec) (func(*cluster.Comm) dist.Operator, error) {
	dense := func(c *cluster.Comm) dist.Operator { return dist.NewDenseGram(c, a) }
	switch {
	case spec.raw:
		return dense, nil
	case spec.sgdBatch > 0:
		return func(c *cluster.Comm) dist.Operator { return dist.NewBatchGram(c, a, spec.sgdBatch, spec.seed) }, nil
	}
	tr, _, err := tune.TuneAndFit(a, plat, tune.Config{
		Epsilon: spec.eps, Workers: runtime.GOMAXPROCS(0), Seed: spec.seed,
	})
	if err != nil {
		return nil, err
	}
	fmt.Printf("preprocessed: L=%d alpha=%.3f\n", tr.L(), tr.Alpha())

	if spec.transform == "auto" {
		choice := tune.ChooseFamily(a.Rows, a.Cols, tr.L(), tr.C.NNZ(), plat, perf.Runtime)
		fmt.Printf("auto family: %s\n", choice.Family)
		if choice.Family == "raw" {
			return dense, nil
		}
	}
	// Validate the shapes once so the factory cannot fail later.
	if _, err := dist.NewExDGram(cluster.NewComm(plat), tr.D, tr.C); err != nil {
		return nil, err
	}
	return func(c *cluster.Comm) dist.Operator {
		g, err := dist.NewExDGram(c, tr.D, tr.C)
		if err != nil {
			panic(err) // unreachable: shapes validated above
		}
		return g
	}, nil
}

// buildOperator assembles the requested Gram operator over a on a fresh
// communicator for the given platform.
func buildOperator(a *mat.Dense, plat cluster.Platform, spec opSpec) (dist.Operator, error) {
	build, err := buildOperatorOn(a, plat, spec)
	if err != nil {
		return nil, err
	}
	return build(cluster.NewComm(plat)), nil
}

// cliFaultPlan draws the chaos schedule the -faults flag injects: one crash
// (when there is a rank to spare), a few slowdowns, and a couple of Reduce
// corruptions spread over the run's expected collective schedule.
func cliFaultPlan(seed uint64, p int, horizon int64) *cluster.FaultPlan {
	crashes := 1
	if p <= 1 {
		crashes = 0 // a solo rank has no survivors to retry on
	}
	if horizon < 2 {
		horizon = 2
	}
	return cluster.RandomFaultPlan(seed, cluster.FaultConfig{
		P:       p,
		Horizon: horizon,
		Crashes: crashes, Slowdowns: 3, Corruptions: 2,
		MaxDelay: 0.25, MaxDelta: 0.01, MaxWord: 1 << 20,
	})
}

// printRecovery reports what the supervisor absorbed during a faulted solve.
func printRecovery(plan *cluster.FaultPlan, rec solver.Recovery) {
	fmt.Printf("faults: %d scheduled from seed %d; %d restarts, backoff %.3f ms, finished on P=%d\n",
		len(plan.Faults), plan.Seed, rec.Restarts, rec.BackoffTime*1e3, rec.FinalP)
	for _, cr := range rec.Crashes {
		fmt.Printf("  recovered: %v\n", error(cr))
	}
}

// loadVector reads a length-n vector from a matrix file shaped n×1 or 1×n.
func loadVector(path string, n int) ([]float64, error) {
	m, err := matio.Load(path)
	if err != nil {
		return nil, err
	}
	switch {
	case m.Cols == 1 && m.Rows == n:
		return m.Col(0, nil), nil
	case m.Rows == 1 && m.Cols == n:
		return append([]float64(nil), m.Row(0)...), nil
	default:
		return nil, fmt.Errorf("vector file %s is %dx%d, want length %d", path, m.Rows, m.Cols, n)
	}
}
