package main

// Every run takes one fleet through the same lifecycle against the real
// daemon — set-up, retrain rounds, warm and cold restarts, then cycles of
// trained streaming, single-point scrapes and untrained backfill — because a
// run has to report every end-to-end metric. A workload is a fleet shape
// plus the make-up of a cycle, which decides which layers do most of the
// work.

// All load comes over one closed-loop connection: it keeps one client
// goroutine and the daemon's side of its request busy, which is what the
// sandbox's 2 cores carry without the scheduler deciding the result. With 2
// connections the same runs read up to 1.5 times further apart (README,
// caveats).

// nominalSeconds is the --seconds at which the cycle counts below apply;
// another value scales the number of cycles linearly, not their size.
const nominalSeconds = 32

// Frame sizes of the two streaming phases, in points.
const (
	streamFrame   = 64
	backfillFrame = 256
)

// shape is one workload: a fleet and fixed operation counts. Loops are
// closed and run a fixed count, not a fixed time: an ingest stream buffers
// megabytes ahead of the server, so a wall-clock cut-off would mis-count.
type shape struct {
	name string
	why  string
	// primary is the kind of load the workload is named after: it gets most
	// of a cycle's time, and wal_bytes_per_pt is read over it.
	primary string

	trained int // series created, backfilled, labelled and trained at set-up
	fresh   int // untrained series created for the backfill rounds

	retrainRounds int // labelled weeks streamed and retrained per series
	warmRestarts  int

	// The steady phases run interleaved, in cycles of one stream round, one
	// scrape slice and one backfill round, so that each metric's readings
	// are spread over the whole run and a slow stretch of the machine
	// weighs on a few of them, not on all readings of one metric. One
	// untimed cycle comes first.
	cycles         int
	streamPoints   int // per round
	scrapeRequests int // per slice; p99 needs ten samples beyond it in every slice
	backfillPoints int // per fresh series per round
}

var shapes = []shape{
	{
		name:    "stream_trained",
		primary: "stream",
		why:     "16 trained series fed mostly by /v1/ingest streams while 32 fresh series are backfilled: per point, the detector battery and the forest do ~90% of the work, HTTP and WAL are amortised away",
		trained: 16, fresh: 32,
		retrainRounds: 2, warmRestarts: 7,
		cycles: 18, streamPoints: 19200, scrapeRequests: 1100, backfillPoints: 8192,
	},
	{
		name:    "scrape_fleet",
		primary: "scrape",
		why:     "32 trained series fed mostly by one-point POSTs, round-robin so each request meets cache-cold state: HTTP/JSON, admission, series lock and durable WAL ack do ~70% of it; also the retrain/restart fleet",
		trained: 32, fresh: 8,
		retrainRounds: 3, warmRestarts: 5,
		cycles: 18, streamPoints: 9600, scrapeRequests: 1600, backfillPoints: 32768,
	},
}

func shapeByName(name string) (shape, bool) {
	for _, s := range shapes {
		if s.name == name {
			return s, true
		}
	}
	return shape{}, false
}

// scaled returns the shape with its number of cycles multiplied by f. The
// size of a round or slice stays: a scrape slice has to support its p99.
func (s shape) scaled(f float64) shape {
	s.cycles = max(minCycles, int(float64(s.cycles)*f+0.5))
	return s
}

// minCycles is the fewest timed cycles a run reports a median of.
const minCycles = 3

// traced returns the reduced shape a traced run measures: the per-layer
// replays share the run's time cap with the daemon, so the fleet shrinks to
// at most traceFleet series and the lifecycle to a few cycles. A traced run
// reports costs per operation, which do not depend on how many operations
// ran.
func (s shape) traced() shape {
	s.trained = min(s.trained, traceFleet)
	s.fresh = min(s.fresh, traceFleet)
	s.cycles = minCycles
	s.retrainRounds, s.warmRestarts = 1, 2
	return s
}

// traceFleet caps the fleet of a traced run; 16 trained series are ~130 MB
// resident, still far beyond the last-level cache.
const traceFleet = 16
