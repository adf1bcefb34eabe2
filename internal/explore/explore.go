// Package explore drives schedule-space exploration: it runs one
// simulated collective scenario under many legal event schedules and
// asserts the full invariant battery on every one.
//
// The simulator's canonical schedule is a single point in a much larger
// space: events at the same virtual instant, and messages matchable at
// the same instant, are concurrent in the model — nothing in the
// simulated physics orders them, only the kernel's tiebreak convention.
// A design that is only correct under the canonical tiebreak is a
// design with a latent arrival-order bug. This package perturbs the
// tiebreaks (sim.Explore) and the message matching (mpi match shuffle)
// to visit other points of that space, two ways:
//
//   - Seeded mode: N schedules, each under a salt derived from one
//     exploration seed. Cheap, covers the space statistically, scales
//     to any rank count.
//   - Systematic mode (DPOR-lite): starting from the canonical
//     schedule, enumerate targeted inversions of observed commutation
//     points — same-LP same-instant adjacent event pairs — breadth
//     first with digest-based deduplication, under a schedule budget.
//     Bounded and only practical at small rank counts, but it explores
//     *structurally distinct* schedules rather than random ones.
//
// Every explored schedule must pass: the conformance oracle (exact
// element-wise equality against a serial reduction), the trace span
// tiling invariant, critical-path accounting (busy+wait == makespan ==
// last event end), watchdog/deadlock cleanliness, and cross-schedule
// result invariance against the canonical baseline. Event counts and
// makespans are recorded per schedule but not required to converge
// across schedules: resource contention is order-dependent by design
// (e.g. which of two same-instant senders wins the NIC injection slot
// decides whether the other pays a delay event), so only the *results*
// are theory-required invariants — a given (scenario, schedule) still
// reproduces its counts exactly, which the determinism tests pin. A
// failure produces a self-contained repro line naming the scenario,
// seed or swap set, and fault spec; exploration continues and all
// failures are aggregated with errors.Join.
package explore

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"

	"dpml/internal/core"
	"dpml/internal/faults"
	"dpml/internal/mpi"
	"dpml/internal/sim"
	"dpml/internal/sweep"
	"dpml/internal/topology"
	"dpml/internal/trace"
)

// Scenario describes one simulated collective to explore. The zero
// value is usable: cluster A, 4 nodes x 4 ppn, a 61-element float32
// sum (the paper's MPI_FLOAT microbenchmark shape) under the dpml-3
// design on a healthy fabric.
type Scenario struct {
	Cluster string // topology.ByName key ("" = "A")
	Nodes   int    // 0 = 4
	PPN     int    // 0 = 4
	Count   int    // elements per rank; 0 = 61
	Dtype   mpi.Datatype
	Op      *mpi.Op // nil = mpi.Sum
	Design  string  // name from Designs(); "" = "dpml-3"

	// Faults is a faults.ParseSpec string ("" = healthy fabric); the
	// plan is instantiated for the job shape with FaultSeed.
	Faults    string
	FaultSeed uint64

	// Watchdog bounds each run in virtual time (0 = 1 virtual second;
	// negative disables). A wedged schedule is an invariant failure,
	// not a hang.
	Watchdog sim.Duration

	Shards int // kernel shards per run (0 = process default)

	// Workload, when non-nil, replaces the built-in allreduce+oracle
	// workload: it runs on every rank and returns the rank's result
	// vector, which feeds the cross-schedule result-invariance check.
	// The conformance oracle is skipped (the driver cannot know a
	// custom workload's answer). This is the seam the mutation tests
	// use to plant deliberately order-sensitive bugs.
	Workload func(e *core.Engine, r *mpi.Rank) (*mpi.Vector, error)
}

// Options selects the exploration mode and budget.
type Options struct {
	// Schedules is the number of seeded schedules to run beyond the
	// canonical baseline.
	Schedules int
	// Seed derives the per-schedule salts (schedule i runs under
	// mix64(Seed+i+1)). Two explorations with equal seeds visit
	// identical schedules at every shard count and worker count.
	Seed uint64
	// Salts, when non-nil, overrides Schedules/Seed with explicit
	// salts — the repro path for a failing seeded schedule.
	Salts []uint64
	// Swaps, when non-nil, runs exactly one schedule with these
	// tiebreak transpositions — the repro path for a failing
	// systematic schedule.
	Swaps []sim.TieSwap
	// Systematic enables the DPOR-lite frontier instead of (or on top
	// of) seeded schedules.
	Systematic bool
	// MaxSchedules bounds the systematic frontier (0 = 192).
	MaxSchedules int
	// MinDistinct, when positive, makes the systematic pass fail
	// unless it visited at least this many behaviorally distinct
	// schedules — a coverage floor for CI.
	MinDistinct int
	// Workers is the host parallelism for independent schedules
	// (0 = sweep default).
	Workers int
}

// ScheduleResult summarizes one explored schedule.
type ScheduleResult struct {
	Label    string   `json:"label"`
	Salt     string   `json:"salt,omitempty"`
	Swaps    int      `json:"swaps,omitempty"`
	Digest   string   `json:"digest"`
	Events   uint64   `json:"events,omitempty"`
	Makespan string   `json:"makespan,omitempty"`
	Failures []string `json:"failures,omitempty"`
}

// Report is the JSON-serializable outcome of one exploration.
type Report struct {
	Scenario  string           `json:"scenario"`
	Mode      string           `json:"mode"`
	Schedules int              `json:"schedules"`
	Distinct  int              `json:"distinct"`
	Canonical string           `json:"canonical_digest"`
	Failures  []string         `json:"failures,omitempty"`
	Results   []ScheduleResult `json:"results"`
}

// NamedDesign pairs a CLI-stable name with its core spec.
type NamedDesign struct {
	Name string
	Spec core.Spec
}

// Designs lists the explorable designs: every reduction path the
// conformance suite covers, under its CLI name.
func Designs() []NamedDesign {
	return []NamedDesign{
		{"flat", core.Flat(mpi.AlgRecursiveDoubling)},
		{"host-based", core.HostBased()},
		{"dpml-3", core.DPML(3)},
		{"dpml-pipe-2x3", core.DPMLPipelined(2, 3)},
		{"sharp-node", core.Spec{Design: core.DesignSharpNode}},
		{"sharp-socket", core.Spec{Design: core.DesignSharpSocket}},
		// Extension families (PR 9). Parameters are chosen so the
		// standard 16-rank exploration shapes exercise the interesting
		// structure: 3 segments pipeline unevenly over a 61-element
		// half, group size 4 leaves a ragged last group on 15-rank
		// conformance shapes.
		{"dualroot-s3", core.DualRoot(3)},
		{"genall-g4", core.GenAll(4)},
		{"pap-sorted", core.PAPSorted()},
		{"pap-ring", core.PAPRing()},
	}
}

// DesignByName resolves a design name: the curated Designs list first,
// then any parameterized form core.ParseDesign understands (so
// -design dualroot-s8 or dpml-7 work without a registry entry).
func DesignByName(name string) (core.Spec, bool) {
	for _, d := range Designs() {
		if d.Name == name {
			return d.Spec, true
		}
	}
	if spec, err := core.ParseDesign(name); err == nil {
		return spec, true
	}
	return core.Spec{}, false
}

// DatatypeByName resolves the CLI datatype names (the Datatype.String
// forms, plus the short f32/f64/i32/i64 aliases).
func DatatypeByName(name string) (mpi.Datatype, bool) {
	switch name {
	case "float32", "f32":
		return mpi.Float32, true
	case "float64", "f64":
		return mpi.Float64, true
	case "int32", "i32":
		return mpi.Int32, true
	case "int64", "i64":
		return mpi.Int64, true
	}
	return 0, false
}

// OpByName resolves the predefined reduction ops by Op.Name.
func OpByName(name string) (*mpi.Op, bool) {
	for _, op := range []*mpi.Op{mpi.Sum, mpi.Prod, mpi.Max, mpi.Min} {
		if op.Name() == name {
			return op, true
		}
	}
	return nil, false
}

// mix64 is the splitmix64 output mixer (the same bijection the kernel
// uses), used here to derive per-schedule salts from one seed.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// resolved is a Scenario with defaults applied and the fault plan
// instantiated — everything runOnce needs, immutable across schedules.
type resolved struct {
	sc     Scenario
	cl     *topology.Cluster
	spec   core.Spec
	plan   *faults.Plan
	oracle *mpi.Vector // nil for custom workloads
}

// resolve applies Scenario defaults and builds the shared immutable
// pieces (cluster, design spec, fault plan, conformance oracle).
func resolve(sc Scenario) (*resolved, error) {
	if sc.Cluster == "" {
		sc.Cluster = "A"
	}
	if sc.Nodes == 0 {
		sc.Nodes = 4
	}
	if sc.PPN == 0 {
		sc.PPN = 4
	}
	if sc.Count == 0 {
		sc.Count = 61
	}
	if sc.Op == nil {
		sc.Op = mpi.Sum
	}
	if sc.Design == "" {
		sc.Design = "dpml-3"
	}
	if sc.Watchdog == 0 {
		sc.Watchdog = sim.Duration(1e9) // 1 virtual second
	} else if sc.Watchdog < 0 {
		sc.Watchdog = 0
	}
	cl := topology.ByName(sc.Cluster)
	if cl == nil {
		return nil, fmt.Errorf("explore: unknown cluster %q", sc.Cluster)
	}
	spec, ok := DesignByName(sc.Design)
	if !ok {
		return nil, fmt.Errorf("explore: unknown design %q", sc.Design)
	}
	rs := &resolved{sc: sc, cl: cl, spec: spec}
	if sc.Faults != "" {
		fspec, err := faults.ParseSpec(sc.Faults)
		if err != nil {
			return nil, fmt.Errorf("explore: %w", err)
		}
		fspec.Seed = sc.FaultSeed
		shape := faults.Shape{Ranks: sc.Nodes * sc.PPN, Nodes: sc.Nodes, HCAs: cl.HCAs}
		rs.plan = fspec.Instantiate(shape)
		if err := rs.plan.Validate(shape); err != nil {
			return nil, fmt.Errorf("explore: %w", err)
		}
	}
	if sc.Workload == nil {
		n := sc.Nodes * sc.PPN
		want := seedVector(sc.Dtype, sc.Count, 0)
		for k := 1; k < n; k++ {
			sc.Op.Apply(want, seedVector(sc.Dtype, sc.Count, k))
		}
		rs.oracle = want
	}
	return rs, nil
}

// seedValue is the rank-seeded element pattern shared with the
// conformance suite: small integers, exact in every datatype and under
// every predefined op.
func seedValue(k, i int) float64 { return float64((k*31+i*7)%17 - 8) }

func seedVector(dt mpi.Datatype, count, rank int) *mpi.Vector {
	v := mpi.NewVector(dt, count)
	for i := 0; i < count; i++ {
		v.Set(i, seedValue(rank, i))
	}
	return v
}

// String renders the scenario in repro-line form.
func (rs *resolved) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "-cluster %s -nodes %d -ppn %d -count %d -dtype %s -op %s -design %s",
		rs.sc.Cluster, rs.sc.Nodes, rs.sc.PPN, rs.sc.Count, rs.sc.Dtype, rs.sc.Op.Name(), rs.sc.Design)
	if rs.sc.Faults != "" {
		fmt.Fprintf(&b, " -faults %q -fault-seed %d", rs.sc.Faults, rs.sc.FaultSeed)
	}
	return b.String()
}

// reproLine builds the self-contained dpml-verify invocation that
// reruns exactly one explored schedule.
func (rs *resolved) reproLine(x *sim.Explore) string {
	var b strings.Builder
	b.WriteString("dpml-verify ")
	b.WriteString(rs.String())
	if x != nil && x.Salt != 0 {
		fmt.Fprintf(&b, " -salt %#x", x.Salt)
	}
	if x != nil && len(x.Swaps) > 0 {
		parts := make([]string, len(x.Swaps))
		for i, s := range x.Swaps {
			parts[i] = fmt.Sprintf("%d:%#x:%#x", s.At, s.A, s.B)
		}
		fmt.Fprintf(&b, " -swaps %s", strings.Join(parts, ","))
	}
	return b.String()
}

// outcome is what one explored schedule produced.
type outcome struct {
	explore  *sim.Explore
	digest   uint64
	events   uint64
	makespan sim.Duration
	sum      [sha256.Size]byte // hash of every rank's result vector
	ties     []sim.TiePair
	failures []string // invariant violations (no repro prefix)
}

// runOnce executes the scenario under one schedule-perturbation config
// and applies the per-schedule invariant battery. An error return is an
// infrastructure failure (bad job shape), not an invariant violation.
func (rs *resolved) runOnce(x *sim.Explore) (*outcome, error) {
	job, err := topology.NewJob(rs.cl, rs.sc.Nodes, rs.sc.PPN)
	if err != nil {
		return nil, fmt.Errorf("explore: %w", err)
	}
	rec := trace.New(0)
	w := mpi.NewWorld(job, mpi.Config{
		Trace:    rec,
		Faults:   rs.plan,
		Watchdog: rs.sc.Watchdog,
		Shards:   rs.sc.Shards,
		Explore:  x,
	})
	e := core.NewEngine(w)
	n := rs.sc.Nodes * rs.sc.PPN
	results := make([]*mpi.Vector, n)
	runErr := w.Run(func(r *mpi.Rank) error {
		if rs.sc.Workload != nil {
			v, err := rs.sc.Workload(e, r)
			if err != nil {
				return err
			}
			results[r.Rank()] = v
			return nil
		}
		v := seedVector(rs.sc.Dtype, rs.sc.Count, r.Rank())
		if err := e.Allreduce(r, rs.spec, rs.sc.Op, v); err != nil {
			return err
		}
		results[r.Rank()] = v
		return nil
	})

	out := &outcome{
		explore: x,
		digest:  w.ScheduleDigest(),
		ties:    w.TiePairs(),
	}
	if runErr != nil {
		// Watchdog fires, deadlock detection, or a workload error: the
		// schedule wedged or failed outright.
		out.failures = append(out.failures, fmt.Sprintf("run failed: %v", runErr))
		return out, nil
	}
	out.events = w.SimStats().Events
	out.makespan = w.Now().Sub(0)

	// Conformance oracle: exact element-wise equality against the
	// serial rank-order reduction.
	if rs.oracle != nil {
		for k := 0; k < n; k++ {
			v := results[k]
			if v == nil {
				out.failures = append(out.failures, fmt.Sprintf("conformance: rank %d returned no result", k))
				continue
			}
			for i := 0; i < rs.sc.Count; i++ {
				// Bit-identity, stated on the bits: the oracle demands
				// exactness, not tolerance.
				if got, want := v.At(i), rs.oracle.At(i); math.Float64bits(got) != math.Float64bits(want) {
					out.failures = append(out.failures,
						fmt.Sprintf("conformance: rank %d elem %d = %v, oracle %v", k, i, got, want))
					break
				}
			}
		}
	}
	out.sum = hashResults(results)

	// Span tiling: per rank, collective spans must be exactly tiled by
	// their phase spans.
	phase := make(map[int]sim.Duration)
	coll := make(map[int]sim.Duration)
	for _, ev := range rec.Events() {
		switch ev.Kind {
		case trace.KindPhase:
			phase[ev.Rank] += ev.Duration()
		case trace.KindCollective:
			coll[ev.Rank] += ev.Duration()
		}
	}
	for k := 0; k < n; k++ {
		if phase[k] != coll[k] {
			out.failures = append(out.failures,
				fmt.Sprintf("span tiling: rank %d phases %v != collectives %v", k, phase[k], coll[k]))
		}
	}

	// Critical path: busy+wait must tile the makespan exactly, and the
	// makespan must be the last recorded event end.
	if rec.Len() > 0 {
		cp := rec.CriticalPath()
		var acc sim.Duration
		for _, st := range cp.Steps {
			acc += st.Busy + st.Wait
		}
		if acc != cp.Total {
			out.failures = append(out.failures,
				fmt.Sprintf("critical path: busy+wait %v != makespan %v", acc, cp.Total))
		}
		var last sim.Time
		for _, ev := range rec.Events() {
			if ev.End > last {
				last = ev.End
			}
		}
		if cp.Total != last.Sub(0) {
			out.failures = append(out.failures,
				fmt.Sprintf("critical path: makespan %v != last event end %v", cp.Total, last.Sub(0)))
		}
	}
	return out, nil
}

// hashResults folds every rank's result vector (in rank order) into one
// digest for cross-schedule result-invariance comparison.
func hashResults(results []*mpi.Vector) [sha256.Size]byte {
	h := sha256.New()
	var buf [8]byte
	for _, v := range results {
		if v == nil {
			h.Write([]byte{0})
			continue
		}
		binary.LittleEndian.PutUint64(buf[:], uint64(v.Len()))
		h.Write(buf[:])
		for i := 0; i < v.Len(); i++ {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.At(i)))
			h.Write(buf[:])
		}
	}
	var out [sha256.Size]byte
	copy(out[:], h.Sum(nil))
	return out
}

// record appends one schedule's result to the report and folds its
// failures — each prefixed with the schedule's repro line — into errs.
// It also applies the cross-schedule invariance checks against the
// canonical baseline.
func (rs *resolved) record(rep *Report, errs *[]error, label string, out, canonical *outcome) {
	res := ScheduleResult{
		Label:    label,
		Digest:   fmt.Sprintf("%#016x", out.digest),
		Events:   out.events,
		Makespan: out.makespan.String(),
	}
	if out.explore != nil && out.explore.Salt != 0 {
		res.Salt = fmt.Sprintf("%#x", out.explore.Salt)
	}
	if out.explore != nil {
		res.Swaps = len(out.explore.Swaps)
	}
	fails := out.failures
	if canonical != nil && out != canonical && len(out.failures) == 0 {
		if out.sum != canonical.sum {
			fails = append(fails, "result invariance: results differ from the canonical schedule")
		}
	}
	repro := rs.reproLine(out.explore)
	for _, f := range fails {
		res.Failures = append(res.Failures, f)
		*errs = append(*errs, fmt.Errorf("%s [repro: %s]", f, repro))
	}
	rep.Results = append(rep.Results, res)
	rep.Schedules++
}

// Run explores the scenario's schedule space per the options and
// returns the report. The returned error aggregates (errors.Join)
// every invariant failure across every explored schedule — exploration
// never stops at the first failure — or reports a scenario setup
// problem.
func Run(sc Scenario, opts Options) (*Report, error) {
	rs, err := resolve(sc)
	if err != nil {
		return nil, err
	}
	rep := &Report{Scenario: rs.String(), Mode: "seeded"}
	if opts.Systematic {
		rep.Mode = "systematic"
	}
	var errs []error

	// Canonical baseline: salt 0, no swaps. Records ties (the
	// systematic frontier's roots) and anchors the invariance checks.
	canonical, err := rs.runOnce(&sim.Explore{RecordTies: true})
	if err != nil {
		return nil, err
	}
	rep.Canonical = fmt.Sprintf("%#016x", canonical.digest)
	rs.record(rep, &errs, "canonical", canonical, canonical)
	distinct := map[uint64]bool{canonical.digest: true}

	// Explicit swap-set repro run.
	if len(opts.Swaps) > 0 {
		out, err := rs.runOnce(&sim.Explore{Swaps: opts.Swaps, RecordTies: true})
		if err != nil {
			return nil, err
		}
		rs.record(rep, &errs, fmt.Sprintf("swaps[%d]", len(opts.Swaps)), out, canonical)
		distinct[out.digest] = true
	}

	// Seeded schedules: independent, so they fan across host workers.
	salts := opts.Salts
	if salts == nil {
		for i := 0; i < opts.Schedules; i++ {
			s := mix64(opts.Seed + uint64(i) + 1)
			if s == 0 {
				s = 1
			}
			salts = append(salts, s)
		}
	}
	if len(salts) > 0 {
		outs, err := sweep.Map(opts.Workers, salts, func(_ int, salt uint64) (*outcome, error) {
			return rs.runOnce(&sim.Explore{Salt: salt})
		})
		if err != nil {
			return nil, err
		}
		for i, out := range outs {
			rs.record(rep, &errs, fmt.Sprintf("seed[%d]", i), out, canonical)
			distinct[out.digest] = true
		}
	}

	if opts.Systematic {
		rs.systematic(opts, rep, &errs, canonical, distinct)
	}

	rep.Distinct = len(distinct)
	if opts.Systematic && opts.MinDistinct > 0 && rep.Distinct < opts.MinDistinct {
		errs = append(errs, fmt.Errorf("coverage: %d distinct schedules, need >= %d [scenario: %s]",
			rep.Distinct, opts.MinDistinct, rs.String()))
	}
	rep.Failures = nil
	for _, e := range errs {
		rep.Failures = append(rep.Failures, e.Error())
	}
	return rep, errors.Join(errs...)
}
