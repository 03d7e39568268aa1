// Package simtest is a deterministic end-to-end simulation harness for the
// whole Opprentice engine, in the spirit of FoundationDB-style simulation
// testing: a seeded scenario generator synthesizes multi-KPI traffic with
// ground-truth anomaly windows (kpigen), noisy operator labeling (labelsim),
// weekly retrain ticks on a virtual point-index clock, and a seeded fault
// schedule reusing internal/faultinject — detector panics, WAL corruption,
// torn artifact writes, crash+restore, model rollback — while a mirror model
// checks global invariants after every step:
//
//   - exactly one verdict per appended point, with contiguous indices,
//     across retrain, restore and rollback monitor swaps;
//   - WAL replay bit-identical to the mirror (values, labels, and the typed
//     anomaly-class channel), with strictly monotonic derived timestamps,
//     and corrupt logs quarantined rather than served;
//   - multi-kind manifests atomic: every artifact kind the current
//     generation names is on disk after a publish, the manifest and the live
//     monitor agree about the type head, and a torn secondary kind costs
//     only that kind (quarantined; the generation keeps serving verdicts
//     warm) while a torn verdict falls the whole generation back;
//   - incremental feature extraction bit-identical to a cold Extract
//     (core.FeatureCache.VerifyAgainstCold after every retrain);
//   - restore deterministic: two engines restored from identical disk state
//     produce bitwise-identical verdicts on identical traffic;
//   - the registry manifest always parseable with the current generation's
//     entry intact, and the live cThld agreeing with the manifest after
//     rollback and warm restore;
//   - alert delivery at-least-once with no duplicates beyond the retry
//     contract, across engine restarts;
//   - overload sheds atomic: a batch over the in-flight budget is rejected
//     with ErrOverloaded and zero points appended, and the next batch
//     passes;
//   - a stalled WAL writer flips the series degraded (threshold-only
//     advisory verdicts, bounded buffering, zero lost points) and the
//     hysteresis recovers it once the stall clears;
//   - the training watchdog abandons a wedged round as ErrStalled, retries
//     with backoff, quarantines at the failure limit, and a manual retrain
//     lifts the quarantine — with every resilience counter matching the
//     mirror's prediction;
//   - AppendBulk, at the seed's GOMAXPROCS, agrees bit for bit with a twin
//     taking the same frames one at a time through Append, and a crash right
//     after an acked flush group restores every point the group reported.
//
// Every failure carries the scenario seed and a trailing step trace so
// `go test ./internal/simtest -run TestSimSeed -seed=N` reproduces it.
package simtest

import (
	"fmt"
	"math/rand"
	"time"

	"opprentice/internal/kpigen"
	"opprentice/internal/labelsim"
)

// FaultKind enumerates the injectable faults of a scenario's schedule.
type FaultKind int

// The fault kinds. DetectorPanic is a scenario-wide property (a panicking
// detector configuration rides along in every training round) rather than a
// scheduled event; the rest fire after the appends of their Step.
const (
	// FaultWALCorrupt flips a byte inside one series' write-ahead log. The
	// live engine keeps serving from memory; the next restore must fail the
	// log's checksum, quarantine it, and carry on with the other series.
	FaultWALCorrupt FaultKind = iota
	// FaultTornArtifact flips a byte inside the current verdict artifact of
	// one series, simulating torn storage under the registry. The next restore
	// must detect the bad frame and fall back (previous generation or cold
	// retrain) without serving the damaged model.
	FaultTornArtifact
	// FaultTornTypeArtifact flips a byte inside the current anomaly-type
	// artifact of one typed series. Unlike a torn verdict, one torn secondary
	// kind costs only that kind: the next restore must quarantine it, keep the
	// generation current, and serve the verdict head warm with the type head
	// gone (Status.TypedModel false) until the next publish.
	FaultTornTypeArtifact
	// FaultRollback rolls one series' model back a generation through the
	// public API and expects the live monitor to hot-swap to it.
	FaultRollback
	// FaultCrashRestore closes the engine (a graceful crash: the kill point
	// for torn WAL tails is exercised separately by tsdb's own fault tests),
	// then restores a fresh engine from disk and cross-checks it against a
	// twin restored from a copy of the same disk state.
	FaultCrashRestore
	// FaultSlowDisk stalls the store under one series' WAL writer: the next
	// append must blow the WAL deadline and flip the series into degraded
	// (threshold-only) serving with bounded buffering, then recover through
	// the hysteresis once the stall clears — with zero lost points.
	FaultSlowDisk
	// FaultHungTrainer wedges a training round via a gated detector: the
	// watchdog must abandon it as stalled, retry with backoff, quarantine the
	// series after the failure limit, and a manual retrain after the hang
	// clears must lift the quarantine.
	FaultHungTrainer
	// FaultIngestFlood pushes one batch over the shard's in-flight ingest
	// budget: admission control must shed it whole (ErrOverloaded, zero
	// points appended) and the next normal batch must sail through.
	FaultIngestFlood
	// FaultBulk runs the bulk episode (bulk.go): random flush groups through
	// AppendBulk, interleaved with labels, query answers, trains and
	// rollbacks, checked against a twin that takes every frame through
	// Append, and ended by a crash right after an acked group.
	FaultBulk
)

// String names the fault kind.
func (k FaultKind) String() string {
	switch k {
	case FaultWALCorrupt:
		return "wal_corrupt"
	case FaultTornArtifact:
		return "torn_artifact"
	case FaultTornTypeArtifact:
		return "torn_type_artifact"
	case FaultRollback:
		return "rollback"
	case FaultCrashRestore:
		return "crash_restore"
	case FaultSlowDisk:
		return "slow_disk"
	case FaultHungTrainer:
		return "hung_trainer"
	case FaultIngestFlood:
		return "ingest_flood"
	case FaultBulk:
		return "bulk"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// FaultEvent schedules one fault after the appends of step Step. Series
// selects the target for WALCorrupt by index into Scenario.Series; the other
// kinds resolve their target at runtime (first alive series that qualifies)
// so an earlier fault cannot invalidate the schedule.
type FaultEvent struct {
	Step   int
	Kind   FaultKind
	Series int
}

// SeriesSpec is one synthetic KPI under simulation.
type SeriesSpec struct {
	Name     string
	Profile  kpigen.Profile
	GenSeed  int64
	Operator labelsim.Operator
	// Typed makes the simulated operator attach anomaly-type names to its
	// label windows (derived from the injection schedule), so the series
	// trains a multi-class type head and publishes two-kind manifests.
	// Untyped series keep exercising the single-kind manifest shape.
	Typed bool
}

// Scenario is one reproducible simulation: everything the harness does is a
// pure function of this value (modulo goroutine scheduling, which the
// invariants are designed to be insensitive to).
type Scenario struct {
	Seed int64
	// BootWeeks of history are appended, labeled and trained before driving
	// starts; DriveWeeks are then driven step by step with weekly labeling
	// and automatic retraining (RetrainEvery = one week of points).
	BootWeeks, DriveWeeks int
	// BatchPoints is the points appended per series per step (the virtual
	// clock tick); it divides a week exactly.
	BatchPoints int
	// Series are the simulated KPIs (hourly interval, so a week is 168
	// points).
	Series []SeriesSpec
	// Faults is the schedule, ascending by Step.
	Faults []FaultEvent
	// DetectorPanics adds a deterministically panicking detector
	// configuration to every training round's registry.
	DetectorPanics bool
	// Procs is the GOMAXPROCS the bulk episode runs at, which sets how many
	// goroutines AppendBulk spreads a group's runs over.
	Procs int
}

// Steps returns the number of drive steps.
func (s Scenario) Steps() int {
	return s.DriveWeeks * s.stepsPerWeek()
}

func (s Scenario) stepsPerWeek() int {
	ppw := int(7 * 24 * time.Hour / s.Series[0].Profile.Interval)
	return ppw / s.BatchPoints
}

// GenScenario derives a scenario from a seed. Every scenario includes at
// least one crash+restore, one rollback, and one torn artifact (verdict or
// type head, 50/50 — the acceptance floor), and ends with the bulk episode
// at a GOMAXPROCS of 1, 2 or 4 by seed; WAL corruption, an extra early
// crash, and a panicking detector ride along pseudo-randomly. long roughly
// doubles the driven length for soak runs.
func GenScenario(seed int64, long bool) Scenario {
	rng := rand.New(rand.NewSource(seed))
	driveWeeks := 2
	if long {
		driveWeeks = 4
	}
	const bootWeeks = 8
	const batch = 24 // one simulated day per step at the hourly interval

	nSeries := 2 + rng.Intn(2)
	kinds := []func(kpigen.Scale) kpigen.Profile{kpigen.PV, kpigen.SR, kpigen.SRT}
	order := rng.Perm(len(kinds))
	series := make([]SeriesSpec, 0, nSeries)
	for i := 0; i < nSeries; i++ {
		p := kinds[order[i%len(kinds)]](kpigen.Small)
		p.Interval = time.Hour // hourly keeps a seed in CI-sized time
		// One spare week of generated data beyond the driven length: the
		// slow-disk fault appends extra in-fault batches (degrade, buffer,
		// recover) that consume points outside the regular step budget. The
		// bulk episode feeds on weeks of its own after that.
		p.Weeks = bootWeeks + driveWeeks + 1 + bulkWeeks
		p.Name = fmt.Sprintf("%s-%d", p.Name, i)
		series = append(series, SeriesSpec{
			Name:    p.Name,
			Profile: p,
			GenSeed: rng.Int63(),
			Operator: labelsim.Operator{
				BoundaryJitter: 1 + rng.Intn(2),
				MissBelow:      3,
				MissProb:       0.1,
				Seed:           rng.Int63(),
			},
			// Series 0 stays untyped so every scenario drives both manifest
			// shapes: legacy single-kind (verdict only) and multi-kind
			// (verdict + atype) side by side.
			Typed: i != 0,
		})
	}

	spw := (7 * 24) / batch // steps per week
	steps := driveWeeks * spw
	lastWeek := (driveWeeks - 1) * spw // first step of the last driven week

	var faults []FaultEvent
	// Optional early crash in the first driven week (only one generation
	// exists yet, so restore exercises the single-artifact warm path).
	if rng.Float64() < 0.4 {
		faults = append(faults, FaultEvent{Step: 1 + rng.Intn(spw-2), Kind: FaultCrashRestore})
	}
	// Optional WAL corruption of one series somewhere before the final week;
	// the mandatory crash below quarantines it.
	if rng.Float64() < 0.6 {
		faults = append(faults, FaultEvent{
			Step:   rng.Intn(lastWeek),
			Kind:   FaultWALCorrupt,
			Series: rng.Intn(nSeries),
		})
	}
	// Mandatory resilience faults (DESIGN.md §11). The ingest flood is
	// instantaneous and mirror-neutral, so any step works. The hung trainer
	// wedges a scheduled retrain, so it anchors at the first weekly boundary
	// — the one step where every surviving series is guaranteed to cross the
	// retrain watermark (later boundaries can be pinned by a rollback or a
	// restore); the harness defers it to a later qualifying step if needed.
	// The slow disk appends four extra in-fault batches and must keep the
	// retrain watermark distance under a week throughout, which restricts it
	// to steps just after a boundary; it also stays off the early-crash
	// range so its degraded window never overlaps a live restore-determinism
	// twin.
	faults = append(faults, FaultEvent{Step: rng.Intn(steps), Kind: FaultIngestFlood})
	hung := spw - 1
	faults = append(faults, FaultEvent{Step: hung, Kind: FaultHungTrainer, Series: rng.Intn(nSeries)})
	var slowOK []int
	for s := 0; s < steps; s++ {
		if r := s % spw; r != 0 && r != 1 && r != spw-1 {
			continue
		}
		if (s >= 1 && s <= spw-2) || s == hung {
			continue
		}
		slowOK = append(slowOK, s)
	}
	faults = append(faults, FaultEvent{Step: slowOK[rng.Intn(len(slowOK))], Kind: FaultSlowDisk})
	// Mandatory rollback once every series has two generations (after the
	// first weekly retrain, i.e. from the second driven week on).
	rollback := spw + rng.Intn(spw-3)
	faults = append(faults, FaultEvent{Step: rollback, Kind: FaultRollback})
	// Mandatory torn artifact after the rollback — one of the two kinds, so
	// the matrix covers both the whole-generation fallback (torn verdict) and
	// the single-kind quarantine (torn type head) — then the mandatory crash
	// in the same driven week (so the torn generation is still current when
	// the restore walks the registry).
	torn := rollback + 1
	if rng.Float64() < 0.5 {
		faults = append(faults, FaultEvent{Step: torn, Kind: FaultTornArtifact})
	} else {
		faults = append(faults, FaultEvent{Step: torn, Kind: FaultTornTypeArtifact})
	}
	crash := torn + 1 + rng.Intn(steps-torn-2)
	faults = append(faults, FaultEvent{Step: crash, Kind: FaultCrashRestore})
	// The bulk episode comes last, after every other fault of the last step:
	// its frames leave the series off the step grid the scheduled faults
	// are placed on.
	faults = append(faults, FaultEvent{Step: steps - 1, Kind: FaultBulk})

	sortFaults(faults)
	return Scenario{
		Seed:           seed,
		BootWeeks:      bootWeeks,
		DriveWeeks:     driveWeeks,
		BatchPoints:    batch,
		Series:         series,
		Faults:         faults,
		DetectorPanics: rng.Float64() < 0.5,
		Procs:          []int{1, 2, 4}[seed%3],
	}
}

// sortFaults orders the schedule by step (stable for same-step events, which
// the harness applies in slice order).
func sortFaults(fs []FaultEvent) {
	for i := 1; i < len(fs); i++ {
		for j := i; j > 0 && fs[j].Step < fs[j-1].Step; j-- {
			fs[j], fs[j-1] = fs[j-1], fs[j]
		}
	}
}
