// Package simtest is a deterministic end-to-end simulation harness for the
// whole Opprentice engine, in the spirit of FoundationDB-style simulation
// testing. A scenario is a list of ops — create, append through Append or
// an AppendBulk group, label, answer a query, train, roll back, crash and
// restore, corrupt a WAL, tear an artifact, stall the WAL, wedge a training
// round, shed an over-budget batch — that one interpreter, (*Harness).apply,
// runs against a real engine while a mirror model checks global invariants
// after every op. GenScenario derives the schedule from a seed: multi-KPI
// traffic with ground-truth anomaly windows (kpigen), noisy operator labels
// (labelsim), weekly retrains on a virtual point-index clock, and a fault
// schedule reusing internal/faultinject; the harness' generator adds each
// step's appends and the closing bulk episode's draws around it. The
// regime scenario is the same interpreter with a finite drift threshold.
// The invariants:
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
//     (core.FeatureCache.VerifyAgainstCold after every round);
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
//   - a drift-armed round fires before the weekly tick under a regime
//     change and never on stationary traffic;
//   - AppendBulk, at the seed's GOMAXPROCS, agrees bit for bit with a twin
//     taking the same frames one at a time through Append, and a crash right
//     after an acked flush group restores every point the group reported.
//
// Every failure carries the scenario seed, the index of the failing op, the
// op tail and a trace, so `go test ./internal/simtest -run TestSimSeed
// -seed=N` reproduces it.
package simtest

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"opprentice/internal/engine"
	"opprentice/internal/kpigen"
	"opprentice/internal/labelsim"
)

// opKind names what one op does to the engine.
type opKind int

const (
	opCreate   opKind = iota // create the series
	opAppend                 // its next n points through Append
	opBulk                   // one flush group through AppendBulk
	opLabel                  // the operator's pass over [lo, hi), or one window
	opAnswer                 // answer the pending query [lo, hi)
	opTrain                  // a manual training round
	opRollback               // roll the model back a generation
	opCrash                  // close, restore, and restore a twin from a copy
	opCorrupt                // flip a byte in the series' newest WAL points frame
	opTear                   // flip a byte in the current verdict artifact
	opTearType               // flip a byte in the current anomaly-type artifact
	opStall                  // stall the WAL under the series through degraded batches
	opHung                   // wedge the series' next scheduled training round
	opShed                   // one batch over the in-flight budget
	numOpKinds
)

var opNames = [numOpKinds]string{"create", "append", "bulk", "label", "answer", "train", "rollback", "crash",
	"wal_corrupt", "torn_artifact", "torn_type_artifact", "wal_stall", "hung_trainer", "shed"}

func (k opKind) String() string { return opNames[k] }

// op is one step of a scenario. Its fields beyond step, kind and series are
// read by the kinds named beside them; n and the batches' points come from
// the series' generated data, so an op list replays against its scenario.
type op struct {
	step   int // the drive step it belongs to (-1: boot)
	kind   opKind
	series string // the target; "" in a schedule when the run picks it

	n         int                  // append
	lo, hi    int                  // label, answer
	anomalous bool                 // label (one window), answer
	operator  bool                 // label: the operator's noisy pass, not one window
	batches   []engine.SeriesBatch // bulk: the group, ending in an unknown series' batches
	applied   int                  // bulk: how many batches precede the unknown series
	viaBulk   bool                 // shed: through AppendBulk rather than Append
	acked     bool                 // bulk: copy the data dir at the ack; the copy must hold every point
}

func (o op) String() string {
	s := fmt.Sprintf("step %d %s", o.step, o.kind)
	if o.series != "" {
		s += " " + o.series
	}
	switch {
	case o.kind == opAppend:
		s += fmt.Sprintf(" n=%d", o.n)
	case o.operator:
		s += fmt.Sprintf(" [%d,%d) by the operator", o.lo, o.hi)
	case o.kind == opLabel || o.kind == opAnswer:
		s += fmt.Sprintf(" [%d,%d) anomalous=%v", o.lo, o.hi, o.anomalous)
	case o.kind == opBulk:
		for k, b := range o.batches {
			s += fmt.Sprintf(" %s:%d", b.Name, len(b.Points))
			if k == o.applied-1 && len(o.batches) > o.applied {
				s += " |"
			}
		}
		s += fmt.Sprintf(" acked=%v", o.acked)
	case o.kind == opShed:
		s += fmt.Sprintf(" bulk=%v", o.viaBulk)
	}
	return s
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
	// Shift multiplies every generated value from index ShiftAt on (0: no
	// shift) — the regime change of the drift scenario.
	Shift   float64
	ShiftAt int
}

// Scenario is one reproducible simulation: everything the harness does is a
// pure function of this value (modulo goroutine scheduling, which the
// invariants are designed to be insensitive to).
type Scenario struct {
	Seed int64
	// BootWeeks of history are appended, labeled and trained before driving
	// starts; Steps drive steps then append BatchPoints per live series each
	// (the virtual clock tick), with weekly labeling and automatic
	// retraining (RetrainEvery = one week of points).
	BootWeeks, Steps, BatchPoints int
	// Series are the simulated KPIs (hourly interval, so a week is 168
	// points).
	Series []SeriesSpec
	// Ops is the schedule, ascending by step: the boot ops (step -1), then
	// the faults, each run after its step's appends. A fault with no series
	// targets the first series that qualifies when it runs.
	Ops []op
	// DetectorPanics adds a deterministically panicking detector
	// configuration to every training round's registry.
	DetectorPanics bool
	// Procs is the GOMAXPROCS the closing bulk episode runs at, which sets
	// how many goroutines AppendBulk spreads a group's runs over; 0 runs no
	// bulk episode.
	Procs int
	// DriftThreshold is the engine's PSI threshold for drift-armed rounds.
	DriftThreshold float64
	// repro is the go test selection that reruns the scenario ("": the
	// TestSimSeed line for Seed).
	repro string
}

// GenScenario derives a scenario from a seed. Every scenario includes at
// least one crash+restore, one rollback, one torn artifact (verdict or type
// head, 50/50 — the acceptance floor), one shed, one WAL stall and one hung
// trainer, and ends with the bulk episode at a GOMAXPROCS of 1, 2 or 4 by
// seed; WAL corruption, an extra early crash, and a panicking detector ride
// along pseudo-randomly. long roughly doubles the driven length for soak
// runs.
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
		// WAL stall and the shed append extra batches that consume points
		// outside the regular step budget. The bulk episode feeds on weeks
		// of its own after that.
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

	ops := bootOps(series, bootWeeks)
	// Optional early crash in the first driven week (only one generation
	// exists yet, so restore exercises the single-artifact warm path).
	if rng.Float64() < 0.4 {
		ops = append(ops, op{step: 1 + rng.Intn(spw-2), kind: opCrash})
	}
	// Optional WAL corruption of one series somewhere before the final week;
	// the mandatory crash below quarantines it.
	if rng.Float64() < 0.6 {
		ops = append(ops, op{step: rng.Intn(lastWeek), kind: opCorrupt, series: series[rng.Intn(nSeries)].Name})
	}
	// Mandatory resilience faults (DESIGN.md §11). The shed is instantaneous
	// and mirror-neutral, so any step works. The hung trainer wedges a
	// scheduled retrain, so it anchors at the first weekly boundary — the
	// one step where every surviving series is guaranteed to cross the
	// retrain watermark (later boundaries can be pinned by a rollback or a
	// restore); the generator defers it to a later qualifying step if needed,
	// and prefers the series named here. The WAL stall appends three extra
	// in-fault batches and the recovering one, and must keep the retrain
	// watermark distance under a week throughout, which restricts it to
	// steps just after a boundary; it also stays off the early-crash range
	// so its degraded window never overlaps a live restore-determinism twin.
	ops = append(ops, op{step: rng.Intn(steps), kind: opShed})
	hung := spw - 1
	ops = append(ops, op{step: hung, kind: opHung, series: series[rng.Intn(nSeries)].Name})
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
	ops = append(ops, op{step: slowOK[rng.Intn(len(slowOK))], kind: opStall})
	// Mandatory rollback once every series has two generations (after the
	// first weekly retrain, i.e. from the second driven week on).
	rollback := spw + rng.Intn(spw-3)
	ops = append(ops, op{step: rollback, kind: opRollback})
	// Mandatory torn artifact after the rollback — one of the two kinds, so
	// the matrix covers both the whole-generation fallback (torn verdict) and
	// the single-kind quarantine (torn type head) — then the mandatory crash
	// in the same driven week (so the torn generation is still current when
	// the restore walks the registry).
	torn := rollback + 1
	if rng.Float64() < 0.5 {
		ops = append(ops, op{step: torn, kind: opTear})
	} else {
		ops = append(ops, op{step: torn, kind: opTearType})
	}
	crash := torn + 1 + rng.Intn(steps-torn-2)
	ops = append(ops, op{step: crash, kind: opCrash})

	// Same-step ops run in the order they were scheduled.
	slices.SortStableFunc(ops, func(a, b op) int { return a.step - b.step })
	return Scenario{
		Seed:           seed,
		BootWeeks:      bootWeeks,
		Steps:          steps,
		BatchPoints:    batch,
		Series:         series,
		Ops:            ops,
		DetectorPanics: rng.Float64() < 0.5,
		// The bulk episode closes the scenario: its frames leave the series
		// off the step grid the scheduled faults are placed on.
		Procs: []int{1, 2, 4}[seed%3],
		// Drift never arms a retrain in the classic matrix (no PSI reaches
		// +Inf): its mirror predicts retrains from the fixed watermark tick
		// alone, and the fault schedule (degraded replays, crashes) shifts
		// vote distributions enough to arm spurious early rounds. The regime
		// scenario pins a finite threshold and asserts on exactly those
		// early rounds.
		DriftThreshold: math.Inf(1),
	}
}

// bootOps creates every series, appends its boot weeks a week at a time,
// has its operator label them, and trains its first model.
func bootOps(series []SeriesSpec, weeks int) []op {
	var ops []op
	for _, s := range series {
		ppw := int(7 * 24 * time.Hour / s.Profile.Interval)
		ops = append(ops, op{step: -1, kind: opCreate, series: s.Name})
		for w := 0; w < weeks; w++ {
			ops = append(ops, op{step: -1, kind: opAppend, series: s.Name, n: ppw})
		}
		ops = append(ops,
			op{step: -1, kind: opLabel, series: s.Name, hi: weeks * ppw, operator: true},
			op{step: -1, kind: opTrain, series: s.Name})
	}
	return ops
}

// regimeDriftThreshold is the PSI threshold the regime scenario pins. The
// engine default (0.25, active.DefaultDriftThreshold) is a sensitivity
// choice: with day-sized windows a single burst of ordinary anomalies can
// clear it, which is fine in production (the retrain is incremental and
// cheap) but makes "stationary ⇒ zero drift retrains" seed-dependent. A full
// regime change lands PSI in the multiple-nats range — orders of magnitude
// above burst noise — so 1.0 separates the two cleanly on every seed.
const regimeDriftThreshold = 1.0

// regimeScenario is the drift scenario: one hourly PV series booted on 8
// weeks with exact labels (a noiseless operator, so the ground-truth
// windows — no truth window of a regime seed straddles the boot horizon),
// then driven a day per step. With shift, every value from one day after
// boot on is ×1.6: the drift detector's reference window (one day, the
// engine default) holds only pre-shift votes and the live windows only
// post-shift ones, and the six drive days stay short of the weekly tick, so
// any round before day 7 is drift-armed. On day 1 the operator answers the
// most uncertain pending query from the truth; after day 6 a crash restores
// a twin from a copy of the disk, and the two must agree on day 7. One
// series means one retrain worker, and no fault columns join the registry.
func regimeScenario(seed int64, shift bool, threshold float64) Scenario {
	p := kpigen.PV(kpigen.Small)
	p.Interval = time.Hour
	p.Weeks = 10 // 8 boot weeks, 7 driven days, with slack
	p.Name = "regime"
	s := SeriesSpec{Name: p.Name, Profile: p, GenSeed: seed}
	const bootWeeks, ppd = 8, 24
	if shift {
		s.Shift, s.ShiftAt = 1.6, bootWeeks*7*ppd+ppd
	}
	series := []SeriesSpec{s}
	return Scenario{
		Seed:        seed,
		BootWeeks:   bootWeeks,
		Steps:       7,
		BatchPoints: ppd,
		Series:      series,
		Ops: append(bootOps(series, bootWeeks),
			op{step: 1, kind: opAnswer, series: p.Name},
			op{step: 5, kind: opCrash}),
		DriftThreshold: threshold,
		repro:          fmt.Sprintf("-run 'TestSimRegime/seed=%d'", seed),
	}
}
