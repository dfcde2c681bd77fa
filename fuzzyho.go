// Package fuzzyho is the public facade of the fuzzy-based handover system
// reproduction (Barolli, Xhafa, Durresi, Koyama: "A Fuzzy-based Handover
// System for Avoiding Ping-Pong Effect in Wireless Cellular Networks",
// ICPP Workshops 2008).
//
// The package re-exports the building blocks a downstream user needs:
//
//   - the paper's fuzzy logic controller (FLC) and the POTLC → FLC → PRTLC
//     decision pipeline (Controller);
//   - the generic fuzzy-inference library it is built on (variables, rules,
//     engines, defuzzifiers, rule DSL);
//   - the cellular simulation substrate (hex lattice, dipole radio model,
//     mobility models, measurement pipeline);
//   - classic non-fuzzy baselines for comparison; and
//   - the experiment harness that regenerates every table and figure of the
//     paper's evaluation (see experiments.go and EXPERIMENTS.md).
//
// Quick start:
//
//	flc := fuzzyho.NewFLC()
//	hd, _ := flc.Evaluate(-3.5, -93.7, 1.2) // CSSP dB, SSN dB, DMB (d/R)
//	if hd > fuzzyho.HandoverThreshold {
//	    // hand over to the strongest neighbor
//	}
package fuzzyho

import (
	"repro/internal/cell"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fcl"
	"repro/internal/fuzzy"
	"repro/internal/handover"
	"repro/internal/hexgrid"
	"repro/internal/metrics"
	"repro/internal/mobility"
	"repro/internal/obs"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/trace"
)

// HandoverThreshold is the paper's decision threshold: handover is carried
// out when the FLC output exceeds 0.7 (§5).
const HandoverThreshold = core.DefaultHandoverThreshold

// The paper's fuzzy controller and decision pipeline.
type (
	// FLC is the paper's fuzzy logic controller (Fig. 5 variables,
	// Table 1 rules, Mamdani max–min inference).
	FLC = core.FLC
	// FLCOptions overrides FLC operators/variables/rules for ablations.
	FLCOptions = core.FLCOptions
	// Controller is the full POTLC → FLC → PRTLC pipeline of Fig. 4.
	Controller = core.Controller
	// ControllerConfig configures a Controller.
	ControllerConfig = core.ControllerConfig
	// Report is the controller's per-epoch measurement input.
	Report = core.Report
	// Decision is the controller's verdict.
	Decision = core.Decision
	// Stage identifies the pipeline stage that settled a decision.
	Stage = core.Stage
)

// Pipeline stages (re-exported from the core package).
const (
	StageQualityGate = core.StageQualityGate
	StageFLC         = core.StageFLC
	StagePRTLC       = core.StagePRTLC
	StageExecute     = core.StageExecute
)

// NewFLC returns the paper's fuzzy logic controller.
func NewFLC() *FLC { return core.NewFLC() }

// NewFLCWithOptions returns an FLC with overridden operators, variables or
// rules — the ablation entry point.
func NewFLCWithOptions(opts FLCOptions) (*FLC, error) {
	return core.NewFLCWithOptions(opts)
}

// NewController returns the paper's handover controller with defaults.
func NewController() *Controller { return core.NewController() }

// NewControllerWithConfig returns a controller with overrides.
func NewControllerWithConfig(cfg ControllerConfig) *Controller {
	return core.NewControllerWithConfig(cfg)
}

// Generic fuzzy-logic library (the FLC's substrate), for building custom
// controllers and rule bases.
type (
	// Variable is a linguistic variable.
	Variable = fuzzy.Variable
	// Term is one linguistic value of a variable.
	Term = fuzzy.Term
	// MembershipFunc maps crisp values to grades in [0, 1].
	MembershipFunc = fuzzy.MembershipFunc
	// Rule is one IF/THEN control rule.
	Rule = fuzzy.Rule
	// RuleBase is an ordered rule collection.
	RuleBase = fuzzy.RuleBase
	// InferenceOptions selects t-norms, implication and defuzzifier.
	InferenceOptions = fuzzy.Options
	// InferenceSystem is a compiled fuzzy system.
	InferenceSystem = fuzzy.System
	// InferenceTrace explains one evaluation.
	InferenceTrace = fuzzy.Trace
	// Scratch holds reusable inference buffers for the allocation-free
	// fast path (one per goroutine; see InferenceSystem.EvaluateInto).
	Scratch = fuzzy.Scratch
	// CompiledSurface is a precompiled control surface: the exact
	// segment-table kernel of a grid-shaped min/max system (the paper's
	// FLC).  Scratch-free, allocation-free, concurrent.
	CompiledSurface = fuzzy.CompiledSurface
)

// CompileSurface compiles an inference system's control surface, or
// reports why the system does not fit the kernel; see
// fuzzy.CompileSurface.  FLC.Compile is the controller-level entry point
// and core.DefaultCompiledFLC the shared compiled paper controller.
func CompileSurface(s *InferenceSystem) (*CompiledSurface, error) {
	return fuzzy.CompileSurface(s)
}

// DefaultCompiledFLC returns the process-wide compiled instance of the
// paper's controller (NewCompiledFuzzyAlgorithm and ServeConfig.Compiled
// use it under the hood).
func DefaultCompiledFLC() (*FLC, error) { return core.DefaultCompiledFLC() }

// Membership-function constructors (re-exported).
var (
	Tri           = fuzzy.Tri
	Trap          = fuzzy.Trap
	ShoulderLeft  = fuzzy.ShoulderLeft
	ShoulderRight = fuzzy.ShoulderRight
)

// ParseRules parses a rulebase in the text DSL
// ("IF cssp IS SM AND ssn IS WK THEN hd IS LO").
func ParseRules(src string) (RuleBase, error) { return fuzzy.ParseRules(src) }

// ParseRule parses a single rule.
func ParseRule(src string) (Rule, error) { return fuzzy.ParseRule(src) }

// NewVariable constructs and validates a linguistic variable.
func NewVariable(name string, min, max float64, terms ...Term) (*Variable, error) {
	return fuzzy.NewVariable(name, min, max, terms...)
}

// NewInferenceSystem compiles a fuzzy inference system.
func NewInferenceSystem(output *Variable, rules RuleBase, opts InferenceOptions, inputs ...*Variable) (*InferenceSystem, error) {
	return fuzzy.NewSystem(output, rules, opts, inputs...)
}

// Simulation substrate.
type (
	// SimConfig describes one simulation run (zero values = Table 2).
	SimConfig = sim.Config
	// SimResult is a completed run.
	SimResult = sim.Result
	// SimEpoch is one measurement epoch with its verdict.
	SimEpoch = sim.Epoch
	// PaperTable is the Tables 3-4 structure.
	PaperTable = sim.PaperTable
	// WalkClass labels trajectories (boundary-hover / crossing).
	WalkClass = sim.WalkClass
	// ScenarioSearchResult records which sub-stream realised a scenario.
	ScenarioSearchResult = sim.ScenarioSearchResult
	// FleetPoint identifies one cell of a fleet sweep grid.
	FleetPoint = sim.FleetPoint
	// Cell is a hexagonal lattice cell label, the paper's BS(i,j).
	Cell = hexgrid.Cell
	// Vec is a planar point in km.
	Vec = hexgrid.Vec
	// Lattice is the hexagonal cell lattice.
	Lattice = hexgrid.Lattice
	// Path is a mobility trajectory.
	Path = mobility.Path
	// MobilityModel generates trajectories.
	MobilityModel = mobility.Model
	// RandSource is the randomness interface mobility models consume.
	RandSource = mobility.RandSource
	// Measurement is one epoch's view of the radio environment.
	Measurement = cell.Measurement
	// Algorithm is the handover decision interface.
	Algorithm = handover.Algorithm
	// HandoverEvent is one executed handover.
	HandoverEvent = metrics.HandoverEvent
	// Series is a named (x, y) data series for CSV/ASCII output.
	Series = trace.Series
	// Dipole is the paper's antenna/propagation model (Eqs. 3-4).
	Dipole = radio.Dipole
)

// Walk classes (re-exported).
const (
	ClassOther         = sim.ClassOther
	ClassBoundaryHover = sim.ClassBoundaryHover
	ClassCrossing      = sim.ClassCrossing
)

// RunSim executes one simulation run.
func RunSim(cfg SimConfig) (*SimResult, error) { return sim.Run(cfg) }

// RunFleet executes many independent simulation configs across a worker
// pool with deterministic, config-ordered results; see sim.RunFleet.
func RunFleet(cfgs []SimConfig, workers int) ([]*SimResult, error) {
	return sim.RunFleet(cfgs, workers)
}

// SweepGrid expands a labelled base config into the seed-replica × speed
// cross product for RunFleet; see sim.SweepGrid.
func SweepGrid(label string, base SimConfig, replicas int, speeds []float64) ([]SimConfig, []FleetPoint) {
	return sim.SweepGrid(label, base, replicas, speeds)
}

// ParseSpeeds parses a comma-separated speed list in km/h (the CLI sweep
// axis), rejecting malformed and negative entries.
func ParseSpeeds(csv string) ([]float64, error) { return sim.ParseSpeeds(csv) }

// PaperBoundaryConfig is the iseed = 100 scenario (Fig. 7 / Table 3).
func PaperBoundaryConfig() SimConfig { return sim.PaperBoundaryConfig() }

// PaperCrossingConfig is the iseed = 200 scenario (Fig. 8 / Table 4).
func PaperCrossingConfig() SimConfig { return sim.PaperCrossingConfig() }

// TrendDriftConfig is the SSN-trend scenario family: the crossing walk
// class under correlated shadow fading, where the trend controller's
// fourth antecedent (NewTrendFuzzy) changes decisions.
func TrendDriftConfig() SimConfig { return sim.TrendDriftConfig() }

// ResolveScenario finds the sub-stream of cfg.Seed realising the paper's
// scenario for that seed; see sim.ResolveScenario.
func ResolveScenario(cfg SimConfig, maxReplicas int) (SimConfig, ScenarioSearchResult, error) {
	return sim.ResolveScenario(cfg, maxReplicas)
}

// NewLattice returns a hexagonal lattice with the given cell radius (km).
func NewLattice(radiusKm float64) *Lattice { return hexgrid.NewLattice(radiusKm) }

// NewDipole returns the paper's dipole model at the given transmit power.
func NewDipole(powerW float64) *Dipole { return radio.NewDipole(powerW) }

// Handover algorithms.
type (
	// FuzzyAlgorithm is the paper's Fig. 4 pipeline as an algorithm, in
	// each fuzzy configuration: the paper's controller, the
	// speed-adaptive threshold and the SSN-trend antecedent.
	FuzzyAlgorithm = handover.Fuzzy
	// AbsoluteThreshold is the naive RSS baseline.
	AbsoluteThreshold = handover.AbsoluteThreshold
	// Hysteresis is the handover-margin baseline.
	Hysteresis = handover.Hysteresis
	// HysteresisTTT adds a time-to-trigger to Hysteresis.
	HysteresisTTT = handover.HysteresisTTT
	// DistanceBased is the location-aided baseline.
	DistanceBased = handover.DistanceBased
	// Passive never hands over (measurement-only control).
	Passive = handover.Passive
	// SIRThreshold is the dominant-interferer-ratio baseline.
	SIRThreshold = handover.SIRThreshold
	// BatchScorer is the optional Algorithm extension behind the serve
	// layer's columnar pipeline: it declares a FeatureSchema and scores
	// whole FeatureFrame columns at once.
	BatchScorer = handover.BatchScorer
	// FeatureSchema is an ordered, named feature set a BatchScorer
	// consumes; its hash is the cross-node compatibility contract.
	FeatureSchema = handover.FeatureSchema
	// FeatureFrame is the reusable columnar (structure-of-arrays) batch a
	// BatchScorer scores.
	FeatureFrame = handover.FeatureFrame
	// TrendState is the per-terminal EWMA slope state behind the SSN-trend
	// feature.
	TrendState = handover.TrendState
	// ScoreStatus classifies one row of a BatchScorer.ScoreFrame result.
	ScoreStatus = handover.ScoreStatus
)

// ScoreFrame row statuses (re-exported).
const (
	ScoreGated     = handover.ScoreGated
	ScoreEvaluated = handover.ScoreEvaluated
	ScoreError     = handover.ScoreError
)

// NewCompiledFuzzyAlgorithm returns the paper's controller on the shared
// compiled control surface, wrapped as an Algorithm.
func NewCompiledFuzzyAlgorithm() (*FuzzyAlgorithm, error) { return handover.NewCompiledFuzzy() }

// NewFuzzyAlgorithm wraps a controller (nil = paper defaults) as a
// simulator algorithm.
func NewFuzzyAlgorithm(ctrl *Controller) *FuzzyAlgorithm {
	return handover.NewFuzzy(ctrl)
}

// NewHysteresisTTT returns the hysteresis + time-to-trigger baseline.
func NewHysteresisTTT(marginDB float64, epochs int) *HysteresisTTT {
	return handover.NewHysteresisTTT(marginDB, epochs)
}

// NewAdaptiveFuzzy returns the speed-adaptive fuzzy controller extension:
// the paper's controller with a threshold that falls with terminal speed.
func NewAdaptiveFuzzy() *FuzzyAlgorithm { return handover.NewAdaptiveFuzzy() }

// NewCompiledAdaptiveFuzzy returns the speed-adaptive extension on the
// process-wide compiled control surface — serve engines built with an
// AlgorithmFactory returning it decide through the columnar pipeline at
// compiled-kernel speed.
func NewCompiledAdaptiveFuzzy() (*FuzzyAlgorithm, error) { return handover.NewCompiledAdaptiveFuzzy() }

// NewTrendFuzzy returns the 4-input trend controller (CSSP, SSN, DMB plus
// the per-terminal SSN-trend antecedent) on per-decision Mamdani
// inference.
func NewTrendFuzzy() (*FuzzyAlgorithm, error) { return handover.NewTrendFuzzy() }

// NewCompiledTrendFuzzy returns the trend controller on its process-wide
// compiled 4-axis control surface.
func NewCompiledTrendFuzzy() (*FuzzyAlgorithm, error) { return handover.NewCompiledTrendFuzzy() }

// PaperFeatureSchema returns the paper's 3-feature schema
// (cssp, ssn, dmb) — what every fixed-pipeline algorithm consumes.
func PaperFeatureSchema() *FeatureSchema { return handover.PaperFeatureSchema() }

// TrendFeatureSchema returns the 4-feature schema (cssp, ssn, dmb,
// ssn_trend) the trend controller consumes; its ssn_trend feature is
// stateful.
func TrendFeatureSchema() *FeatureSchema { return handover.TrendFeatureSchema() }

// SchemaHashOf returns the feature-schema hash an algorithm serves: the
// declared schema's hash for a BatchScorer, the paper schema's hash for
// everything else.  It is what hoserve announces in Daemon.SchemaHash and
// node clients announce in their hello line.
func SchemaHashOf(a Algorithm) uint64 { return handover.SchemaHashOf(a) }

// ServeAlgorithmFactory resolves an algorithm selector ("fuzzy",
// "adaptive", "trendfuzzy") into a ServeConfig.AlgorithmFactory or
// SimConfig.AlgorithmFactory, on the shared compiled kernels when
// compiled is set.  See handover.AlgorithmFactoryFor.
func ServeAlgorithmFactory(name string, compiled bool) (func() Algorithm, error) {
	return handover.AlgorithmFactoryFor(name, compiled)
}

// Streaming serve layer: the sharded decision engine that owns
// per-terminal state across streamed measurement reports.
type (
	// ServeEngine is the concurrent sharded handover decision engine.
	ServeEngine = serve.Engine
	// ServeConfig configures a ServeEngine.
	ServeConfig = serve.Config
	// ServeStats is a snapshot of the engine's per-shard counters.
	ServeStats = serve.Stats
	// MeasurementReport is one terminal's measurement epoch (serve ingest).
	MeasurementReport = serve.Report
	// ServeOutcome is the engine's per-report verdict.
	ServeOutcome = serve.Outcome
	// TerminalID identifies a terminal across reports.
	TerminalID = serve.TerminalID
	// LatencyRecorder accumulates concurrent latency samples (load harness).
	LatencyRecorder = serve.LatencyRecorder
	// LatencySnapshot is a point-in-time — or, via SnapshotDelta,
	// windowed — view of a LatencyRecorder.
	LatencySnapshot = serve.LatencySnapshot
	// DecisionTrace is one sampled decision with its FLC explanation
	// (ServeConfig.TraceEvery; served at /tracez).
	DecisionTrace = serve.DecisionTrace
)

// Observability layer: the dependency-free metrics registry and admin
// endpoints every serving binary exposes (see internal/obs).
type (
	// MetricsRegistry collects counters, gauges, histograms and
	// collector callbacks for export.
	MetricsRegistry = obs.Registry
	// MetricsLabel is one key=value metric label.
	MetricsLabel = obs.Label
	// MetricsPoint is one exported metric sample (the /metrics and
	// {"ctl":"stats"} payload unit).
	MetricsPoint = obs.Point
	// MetricsHistogram is the lock-free log-linear histogram shared by
	// the registry and LatencyRecorder.
	MetricsHistogram = obs.Histogram
	// ObsAdmin serves /metrics, /statusz, /healthz and /tracez.
	ObsAdmin = obs.Admin
)

// NewMetricsRegistry builds a metrics registry; base labels are attached
// to every exported point.
func NewMetricsRegistry(base ...MetricsLabel) *MetricsRegistry { return obs.NewRegistry(base...) }

// ErrServeNotRunning is the serve layer's lifecycle error (re-exported).
var ErrServeNotRunning = serve.ErrNotRunning

// NewServeEngine validates the configuration and builds a stopped engine;
// see serve.New.
func NewServeEngine(cfg ServeConfig) (*ServeEngine, error) { return serve.New(cfg) }

// ReplayReports tags a measurement stream (e.g. SimResult.Measurements)
// with a terminal identity for serve-engine ingest.
func ReplayReports(id TerminalID, ms []Measurement) []MeasurementReport {
	return serve.ReplayReports(id, ms)
}

// InterleaveReports merges per-terminal report streams round-robin — the
// arrival pattern of a live population.
func InterleaveReports(streams [][]MeasurementReport) []MeasurementReport {
	return serve.InterleaveReports(streams)
}

// Multi-node cluster layer: consistent-hash routing of terminals across
// N engine nodes (in-process or remote hoserve daemons over TCP), with
// per-terminal decision sequences identical to a single engine's.
type (
	// ClusterRouter is the node-routing interface (both backends).
	ClusterRouter = cluster.Router
	// ClusterStats merges the per-node counters.
	ClusterStats = cluster.Stats
	// ClusterNodeStats is one node's counter snapshot.
	ClusterNodeStats = cluster.NodeStats
	// ClusterLocalConfig configures an in-process cluster.
	ClusterLocalConfig = cluster.LocalConfig
	// ClusterTCPConfig configures a TCP cluster over hoserve daemons.
	ClusterTCPConfig = cluster.TCPConfig
	// LocalCluster is the in-process Router backend.
	LocalCluster = cluster.Local
	// TCPCluster is the wire-protocol Router backend.
	TCPCluster = cluster.TCP
	// ClusterRing is the consistent-hash ring over TerminalID.
	ClusterRing = cluster.Ring
	// ServeNodeClient speaks the wire protocol to one engine node.
	ServeNodeClient = serve.NodeClient
	// ServeNodeClientConfig configures a ServeNodeClient.
	ServeNodeClientConfig = serve.NodeClientConfig
	// TerminalSnapshot is one terminal's complete decision state — the
	// migration and crash-recovery payload.
	TerminalSnapshot = serve.TerminalSnapshot
	// SnapshotEvent is one executed handover in a snapshot's ring.
	SnapshotEvent = serve.SnapshotEvent
	// ServeWireControl is one snapshot-control-plane line (hello,
	// extract, restore) interleaved with a connection's report stream.
	ServeWireControl = serve.WireControl
	// ServeFaultInjector wraps node-client dials with deterministic
	// fault knobs (delay, drop, duplicate, partition, cut).
	ServeFaultInjector = serve.FaultInjector
)

// DefaultClusterVirtualNodes is the ring's per-member virtual node count.
const DefaultClusterVirtualNodes = cluster.DefaultVirtualNodes

// NewClusterRing builds a consistent-hash ring (virtualNodes 0 selects
// the default); see cluster.NewRing.
func NewClusterRing(nodes, virtualNodes int) (*ClusterRing, error) {
	return cluster.NewRing(nodes, virtualNodes)
}

// NewClusterRingMembers builds a ring over an explicit member-ID set —
// the elastic-membership form; see cluster.NewRingMembers.
func NewClusterRingMembers(members []int, virtualNodes int) (*ClusterRing, error) {
	return cluster.NewRingMembers(members, virtualNodes)
}

// ClusterMigrationHooks returns serve.Daemon Extract/Restore/Release
// hooks that serve the two-phase snapshot control plane for an engine,
// as hoserve wires them; see cluster.MigrationHooks.
func ClusterMigrationHooks(e *ServeEngine) (
	extract func(members []int, vnodes, self int, keep bool) ([]TerminalSnapshot, error),
	restore func(snaps []TerminalSnapshot, skipLive bool) error,
	release func(members []int, vnodes, self int) (int, error),
) {
	return cluster.MigrationHooks(e)
}

// NewServeFaultInjector builds a fault-injection dialer for resilience
// tests; see serve.NewFaultInjector.
func NewServeFaultInjector() *ServeFaultInjector { return serve.NewFaultInjector() }

// NewLocalCluster builds and starts an in-process cluster router.
func NewLocalCluster(cfg ClusterLocalConfig) (*LocalCluster, error) {
	return cluster.NewLocal(cfg)
}

// DialTCPCluster connects a cluster router to remote hoserve daemons.
func DialTCPCluster(cfg ClusterTCPConfig) (*TCPCluster, error) {
	return cluster.DialTCP(cfg)
}

// DialServeNode connects a wire-protocol client to one hoserve daemon.
func DialServeNode(addr string, cfg ServeNodeClientConfig) (*ServeNodeClient, error) {
	return serve.DialNode(addr, cfg)
}

// DeriveSeed maps a (seed, replica) pair to a derived seed, the replica
// protocol used throughout the experiments.
func DeriveSeed(seed int64, replica int) int64 { return rng.DeriveSeed(seed, replica) }

// ParseFCL compiles an IEC 61131-7 Fuzzy Control Language function block
// into an inference system.
func ParseFCL(src string) (*InferenceSystem, error) { return fcl.Parse(src) }

// WriteFCL exports an inference system as FCL text.
func WriteFCL(name string, sys *InferenceSystem) (string, error) { return fcl.Write(name, sys) }

// MarshalSystemJSON serializes an inference system's structure to JSON.
var MarshalSystemJSON = fuzzy.MarshalSystem

// UnmarshalSystemJSON decodes and compiles an inference system from JSON.
var UnmarshalSystemJSON = fuzzy.UnmarshalSystem

// WriteCSV writes data series as CSV with a shared x column.
var WriteCSV = trace.WriteCSV

// LinePlot renders series as an ASCII chart.
var LinePlot = trace.LinePlot
