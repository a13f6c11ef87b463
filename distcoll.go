// Package distcoll is a Go reproduction of "Process Distance-aware
// Adaptive MPI Collective Communications" (Ma, Herault, Bosilca, Dongarra —
// IEEE CLUSTER 2011).
//
// The package re-exports the library's public surface:
//
//   - hardware topology modeling (the hwloc substitute) and the paper's
//     two evaluation machines, Zoot and IG;
//   - process placement (bindings) and the 1–6 process-distance metric;
//   - the paper's contribution: distance-aware broadcast trees
//     (Algorithm 1) and allgather rings (Algorithm 2), compiled to
//     executable communication schedules;
//   - the rank-based Open MPI tuned / MPICH2 baselines;
//   - a mini-MPI runtime (goroutine processes, communicators, pluggable
//     collective components) that runs those schedules on real memory
//     through an emulated KNEM device;
//   - a calibrated flow-level performance simulator and the IMB-style
//     harness that regenerates every figure of the paper's evaluation;
//   - structured runtime tracing and metrics with an invariant-checking
//     trace analyzer (DESIGN.md §7);
//   - an adaptive selection engine driven by simulation-calibrated
//     decision tables, plus a bounded cache of compiled schedules behind
//     the runtime's Adaptive component (DESIGN.md §8).
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured results. The runnable entry points are
// cmd/distbench (figures), cmd/lstopo, cmd/collviz, cmd/disttrace,
// cmd/disttune (decision tables), and the programs under examples/.
package distcoll

import (
	"distcoll/internal/autotune"
	"distcoll/internal/baseline"
	"distcoll/internal/binding"
	"distcoll/internal/chaos"
	"distcoll/internal/core"
	"distcoll/internal/distance"
	"distcoll/internal/exec"
	"distcoll/internal/fault"
	"distcoll/internal/figures"
	"distcoll/internal/health"
	"distcoll/internal/hwtopo"
	"distcoll/internal/imb"
	"distcoll/internal/integrity"
	"distcoll/internal/machine"
	"distcoll/internal/mpi"
	"distcoll/internal/plancache"
	"distcoll/internal/sched"
	"distcoll/internal/trace"
	"distcoll/internal/tune"
)

// Hardware topology (hwloc substitute).
type (
	Topology     = hwtopo.Topology
	TopologySpec = hwtopo.Spec
	ClusterSpec  = hwtopo.ClusterSpec
)

// NewZoot builds the paper's 16-core Tigerton SMP machine.
func NewZoot() *Topology { return hwtopo.NewZoot() }

// NewIG builds the paper's 48-core dual-board Istanbul machine.
func NewIG() *Topology { return hwtopo.NewIG() }

// NewIGCluster builds the 4-node/2-switch evaluation cluster (§VI
// extension).
func NewIGCluster() *Topology { return hwtopo.NewIGCluster() }

// BuildTopology constructs a custom machine from a spec.
func BuildTopology(spec TopologySpec) (*Topology, error) { return hwtopo.Build(spec) }

// BuildCluster constructs a custom multi-node cluster.
func BuildCluster(spec ClusterSpec) (*Topology, error) { return hwtopo.BuildCluster(spec) }

// MachineByName returns a known machine ("zoot", "ig").
func MachineByName(name string) (*Topology, error) { return hwtopo.ByName(name) }

// Process placement.
type Binding = binding.Binding

// Binding constructors (see package binding for semantics).
var (
	Contiguous  = binding.Contiguous
	RoundRobin  = binding.RoundRobin
	CrossSocket = binding.CrossSocket
	RandomBind  = binding.Random
	UserBind    = binding.User
	BindByName  = binding.ByName
)

// Process distance (§IV-A).
type DistanceMatrix = distance.Matrix

// NewDistanceMatrix computes pairwise process distances for ranks bound to
// the given logical cores.
func NewDistanceMatrix(t *Topology, coreOf []int) DistanceMatrix {
	return distance.NewMatrix(t, coreOf)
}

// Distance returns the paper's 1–6 metric between two cores.
func Distance(t *Topology, coreA, coreB int) int { return distance.Between(t, coreA, coreB) }

// Distance-aware topologies (the paper's contribution, §IV-B/C).
type (
	Tree        = core.Tree
	TreeOptions = core.TreeOptions
	Ring        = core.Ring
	RingOptions = core.RingOptions
	Levels      = core.Levels
)

// Topology construction and compilation.
var (
	BuildBroadcastTree          = core.BuildBroadcastTree
	BuildAllgatherRing          = core.BuildAllgatherRing
	BuildBroadcastTreeFast      = core.BuildBroadcastTreeFast
	BuildAllgatherRingFast      = core.BuildAllgatherRingFast
	NewLinearTree               = core.NewLinearTree
	CompileBroadcast            = core.CompileBroadcast
	CompileAllgather            = core.CompileAllgather
	CompileReduce               = core.CompileReduce
	CompileAllreduce            = core.CompileAllreduce
	CompileGather               = core.CompileGather
	CompileScatter              = core.CompileScatter
	CompileAlltoallDirect       = core.CompileAlltoallDirect
	CompileAlltoallHierarchical = core.CompileAlltoallHierarchical
	FlatLevels                  = core.FlatLevels
	CollapseBelow               = core.CollapseBelow
)

// Schedules and functional execution.
type (
	Schedule = sched.Schedule
	Buffers  = exec.Buffers
)

// Functional executors (real memory, full concurrency). The context
// variant aborts on cancellation/deadline with a pending-op diagnostic
// instead of deadlocking.
var (
	AllocBuffers       = exec.Alloc
	RunSchedule        = exec.Run
	RunScheduleContext = exec.RunContext
)

// Baselines (rank-based algorithms the paper compares against).
type TransportConfig = baseline.TransportConfig

// Baseline decisions, compilers and point-to-point transports.
var (
	TunedBcastDecision       = baseline.TunedBcastDecision
	MPICHBcastDecision       = baseline.MPICHBcastDecision
	TunedAllgatherDecision   = baseline.TunedAllgatherDecision
	CompileBaselineBcast     = baseline.CompileBcast
	CompileBaselineAllgather = baseline.CompileAllgather
	SMKnemBTL                = baseline.SMKnemBTL
	NemesisSM                = baseline.NemesisSM
)

// Mini-MPI runtime.
type (
	World     = mpi.World
	Proc      = mpi.Proc
	Comm      = mpi.Comm
	Component = mpi.Component
	ReduceOp  = mpi.ReduceOp
)

// Fault tolerance: deterministic fault injection (transport faults, rank
// crashes), watchdogged failure detection, and ULFM-style recovery via
// Comm.Shrink / Comm.Resilient (any collective, named by a CollectiveCall)
// and its *Resilient wrappers. ClassifyError maps whatever they return to
// its ErrorOutcome; recovery's refusals wrap ErrRootLost, ErrSelfFailed or
// ErrNothingToShrink.
type (
	FaultPlan        = fault.Plan
	FaultInjector    = fault.Injector
	FaultStats       = fault.Stats
	RankFailureError = mpi.RankFailureError
	HangError        = mpi.HangError
	SendTimeoutError = mpi.SendTimeoutError
	CollectiveCall   = mpi.Call
	ErrorOutcome     = mpi.Outcome
)

// Fault-layer constructors, classifiers, and World options.
var (
	NewFaultInjector    = fault.NewInjector
	IsTransientFault    = fault.IsTransient
	IsCrashed           = fault.IsCrashed
	IsRankFailure       = mpi.IsRankFailure
	IsHang              = mpi.IsHang
	ClassifyError       = mpi.Classify
	ErrRootLost         = mpi.ErrRootLost
	ErrSelfFailed       = mpi.ErrSelfFailed
	ErrNothingToShrink  = mpi.ErrNothingToShrink
	WithFault           = mpi.WithFault
	WithOpDeadline      = mpi.WithOpDeadline
	WithSendTimeout     = mpi.WithSendTimeout
	WithMailboxCapacity = mpi.WithMailboxCapacity
)

// ClassifyError's outcomes.
const (
	OutcomeOK          = mpi.OutcomeOK
	OutcomeCrashed     = mpi.OutcomeCrashed
	OutcomePartitioned = mpi.OutcomePartitioned
	OutcomeExcluded    = mpi.OutcomeExcluded
	OutcomeHang        = mpi.OutcomeHang
	OutcomeFailure     = mpi.OutcomeFailure
)

// Data integrity, consistent failure agreement, and chaos testing
// (DESIGN.md §10): per-chunk checksums with bounded re-pull on every KNEM
// transfer plus end-to-end digests (WithIntegrity), the MPIX_Comm_agree
// analog Comm.Agree that makes every survivor's Shrink derive identical
// membership, and the deterministic seed-driven soak harness behind
// cmd/distchaos.
type (
	IntegrityConfig  = integrity.Config
	IntegrityChecker = integrity.Checker
	IntegrityStats   = integrity.Stats
	CorruptionError  = mpi.CorruptionError
	ChaosCell        = chaos.Cell
	ChaosScenario    = chaos.Scenario
	ChaosConfig      = chaos.Config
	ChaosResult      = chaos.Result
	ChaosSummary     = chaos.Summary
)

// Integrity/chaos constructors, classifiers, and World options.
var (
	WithIntegrity = mpi.WithIntegrity
	IsCorruption  = mpi.IsCorruption
	ChaosGrid     = chaos.DefaultGrid
	ChaosPlanFor  = chaos.PlanFor
	ChaosRunSeed  = chaos.RunSeed
	ChaosRunPlan  = chaos.RunPlan
	ChaosSweep    = chaos.Sweep
	ChaosMinimize = chaos.Minimize
	ChaosPayload  = chaos.Payload
)

// Observability: structured runtime tracing and metrics (DESIGN.md §7).
// A world built with WithTracer emits op/copy/plan/cookie/failure events
// into the tracer's sinks; internal/trace/check and cmd/disttrace verify
// captured traces against the paper's §IV invariants.
type (
	TraceEvent     = trace.Event
	TraceKind      = trace.Kind
	Tracer         = trace.Tracer
	TraceSink      = trace.Sink
	TraceRingSink  = trace.RingSink
	TraceJSONLSink = trace.JSONLSink
	TraceMetrics   = trace.Metrics
)

// Tracer constructors, sinks, and trace manipulation helpers.
var (
	NewTracer         = trace.New
	NewTraceRing      = trace.NewRing
	NewTraceJSONL     = trace.NewJSONL
	WithTracer        = mpi.WithTracer
	MarshalTraceJSONL = trace.MarshalJSONL
	ReadTraceJSONL    = trace.ReadJSONL
	WriteChromeTrace  = trace.WriteChrome
	FilterTrace       = trace.Filter
	CanonicalTrace    = trace.Canonical
	TraceOfSchedule   = trace.ScheduleEvents
)

// Built-in reduction operators.
var (
	OpSumFloat64 = mpi.OpSumFloat64
	OpSumInt64   = mpi.OpSumInt64
	OpMaxUint8   = mpi.OpMaxUint8
	OpBXOR       = mpi.OpBXOR
)

// Collective components.
const (
	KNEMColl = mpi.KNEMColl
	Tuned    = mpi.Tuned
	MPICH2   = mpi.MPICH2
	Adaptive = mpi.Adaptive
)

// Adaptive selection and plan caching (DESIGN.md §8): the decision engine
// that picks component/variant/chunk per (collective, topology, size)
// from simulation-calibrated tables, and the size-bounded cache of
// compiled schedules the runtime's Adaptive component reuses.
type (
	TuneDecision    = tune.Decision
	TuneTable       = tune.Table
	TuneSelector    = tune.Selector
	TuneOverlay     = tune.Overlay
	TuneFingerprint = tune.Fingerprint
	PlanCache       = plancache.Cache
	PlanCacheStats  = plancache.Stats
	// AutotuneConfig configures the online autotuner (DESIGN.md §14);
	// Autotuner is the measured-feedback model-fitting engine itself.
	AutotuneConfig = autotune.Config
	Autotuner      = autotune.Tuner
	// HealthConfig configures gray-failure detection (DESIGN.md §15);
	// HealthScorer is the online straggler scorer whose demotion
	// snapshots overlay the distance view, and HealthReport its
	// rendered state (the disttrace health CLI output).
	HealthConfig = health.Config
	HealthScorer = health.Scorer
	HealthReport = health.Report
)

// Selection-engine constructors, calibration, and the World options wiring
// them into the runtime.
var (
	NewTuneSelector       = tune.NewSelector
	DefaultTuneSelector   = tune.DefaultSelector
	DefaultTuneTables     = tune.DefaultTables
	CalibrateTable        = tune.Calibrate
	CalibrateMachineTable = tune.CalibrateMachine
	FingerprintOf         = tune.FingerprintOf
	NewPlanCache          = plancache.New
	PlanTopoHash          = plancache.TopoHash
	WithSelector          = mpi.WithSelector
	WithPlanCacheCapacity = mpi.WithPlanCacheCapacity
	WithAutotune          = mpi.WithAutotune
	WithHealth            = mpi.WithHealth
)

// NewWorld creates a mini-MPI job over a binding. Options configure the
// fault layer (WithFault, WithOpDeadline, WithSendTimeout,
// WithMailboxCapacity) and observability (WithTracer).
func NewWorld(b *Binding, opts ...mpi.Option) *World { return mpi.NewWorld(b, opts...) }

// Performance model and simulation.
type MachineParams = machine.Params

// Calibrated parameter sets and the simulator entry point.
var (
	ZootParams    = machine.ZootParams
	IGParams      = machine.IGParams
	ClusterParams = machine.ClusterParams
	Simulate      = machine.Simulate
)

// Experiment drivers (one per paper figure) and the IMB-style harness.
type (
	Figure = figures.Figure
	Series = imb.Series
)

// Figure drivers and reporting helpers.
var (
	Fig2          = figures.Fig2
	Fig6          = figures.Fig6
	Fig7          = figures.Fig7
	Fig8          = figures.Fig8
	FigureByID    = figures.ByID
	AllFigures    = figures.All
	StandardSizes = imb.StandardSizes
	WriteTable    = imb.WriteTable
	WriteCSV      = imb.WriteCSV
)
