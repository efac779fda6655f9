package serve

import "sync/atomic"

// metrics is the server's atomic counter set, exposed as JSON by GET
// /statsz (see docs/SERVING.md for the meaning and intended use of each
// counter). All fields are monotonic except InFlight, a gauge.
type metrics struct {
	// Requests counts every query-endpoint request accepted for parsing
	// (health and stats probes are not counted).
	Requests atomic.Int64
	// Executed counts engine executions: requests that actually ran
	// Query/QueryTopK rather than joining an in-flight twin or being
	// rejected. The coalescing win is Coalesced/(Executed+Coalesced).
	Executed atomic.Int64
	// Coalesced counts requests answered by joining another request's
	// in-flight execution (they performed no engine work).
	Coalesced atomic.Int64
	// CacheHits counts executions answered from the answer cache.
	CacheHits atomic.Int64
	// Shed counts requests rejected 429 by admission control.
	Shed atomic.Int64
	// DrainRejected counts requests rejected 503 while draining.
	DrainRejected atomic.Int64
	// Found / NoAnswer split completed single-answer queries by outcome.
	Found, NoAnswer atomic.Int64
	// ClientGone counts requests whose client disconnected before their
	// (possibly shared) execution completed; nothing was written.
	ClientGone atomic.Int64
	// Errors counts responses with status >= 400 other than 404/429/503
	// rejections counted above: invalid input, timeouts, internal errors.
	Errors atomic.Int64
	// InFlight is the number of admission slots currently held.
	InFlight atomic.Int64
}

// metricsSnapshot is the JSON shape of GET /statsz (assembled by
// Server.snapshot).
type metricsSnapshot struct {
	UptimeMs      int64 `json:"uptime_ms"`
	Requests      int64 `json:"requests_total"`
	Executed      int64 `json:"executed_total"`
	Coalesced     int64 `json:"coalesced_total"`
	CacheHits     int64 `json:"cache_hits_total"`
	Shed          int64 `json:"shed_total"`
	DrainRejected int64 `json:"drain_rejected_total"`
	Found         int64 `json:"found_total"`
	NoAnswer      int64 `json:"no_answer_total"`
	ClientGone    int64 `json:"client_gone_total"`
	Errors        int64 `json:"errors_total"`
	InFlight      int64 `json:"in_flight"`
	MaxInFlight   int   `json:"max_in_flight"`
	Draining      bool  `json:"draining"`

	// Live coalescing depth (the flight map at snapshot time).
	FlightKeys       int `json:"flight_in_flight_keys"`
	FlightWaiters    int `json:"flight_waiters"`
	FlightMaxWaiters int `json:"flight_max_waiters_one_key"`

	// Gather-window tallies (zero when Config.GatherWindow is off).
	GatherWindowMs float64 `json:"gather_window_ms"`
	GatherBatches  int64   `json:"gather_batches_total"`
	GatherBatched  int64   `json:"gather_batched_requests_total"`
	GatherMaxBatch int64   `json:"gather_max_batch"`

	// Engine shared-work memo counters; omitted when the layer is
	// disabled (Config.DisableSharedWork at the facade).
	SharedWork *sharedWorkJSON `json:"shared_work,omitempty"`

	// Road delta-overlay state; omitted while the oracle is static (no
	// road mutation since Open or the last Compact).
	RoadOverlay *roadOverlayJSON `json:"road_overlay,omitempty"`

	// True while a background Compact re-contraction is in flight.
	Rebuilding bool `json:"rebuilding,omitempty"`

	// Write-ahead-log state; omitted when the DB runs without a WAL.
	WAL *walJSON `json:"wal,omitempty"`

	// Memory accounting: engine-owned structures plus the Go heap.
	// Always present.
	Memory *memoryJSON `json:"memory,omitempty"`
}

// memoryJSON mirrors gpssn.MemoryStats for /statsz: where the process's
// memory actually lives. oracle_bytes is the capacity-planning headline
// (the preprocessed label store dominates at scale); arena_bytes is the
// engine's recycled scratch and memo_bytes the label memo's resident
// labels; poi_label_bytes is the POI
// label table (0 without hub labels or while road deltas are pending); the
// heap fields are the runtime's own view for cross-checking against RSS.
type memoryJSON struct {
	OracleBytes   int64  `json:"oracle_bytes"`
	ArenaBytes    int64  `json:"arena_bytes"`
	MemoBytes     int64  `json:"memo_bytes"`
	POILabelBytes int64  `json:"poi_label_bytes"`
	HeapAlloc     uint64 `json:"heap_alloc_bytes"`
	HeapSys       uint64 `json:"heap_sys_bytes"`
	NumGC         uint32 `json:"gc_cycles_total"`
}

// roadOverlayJSON mirrors gpssn.RoadOverlayStats for /statsz: how far the
// road network has grown past the static oracle and how big the portal
// patch has become — the number an operator watches to schedule Compact
// under sustained write traffic.
type roadOverlayJSON struct {
	BaseVertices int   `json:"base_vertices"`
	NewVertices  int   `json:"new_vertices"`
	NewEdges     int   `json:"new_edges"`
	Portals      int   `json:"portals"`
	Queries      int64 `json:"composed_queries_total"`
}

// walJSON mirrors gpssn.WALStats for /statsz: durability state under write
// traffic. pending_records is the operator's headline — how many updates a
// crash right now would force recovery to replay; it drops to zero at every
// checkpoint. fsyncs_total versus appends_total shows the group-commit
// batching win under -wal-sync batch.
type walJSON struct {
	Path             string `json:"path"`
	Sync             string `json:"sync"`
	StartLSN         uint64 `json:"start_lsn"`
	LastLSN          uint64 `json:"last_lsn"`
	AppliedLSN       uint64 `json:"applied_lsn"`
	Pending          int64  `json:"pending_records"`
	Bytes            int64  `json:"bytes"`
	Appends          int64  `json:"appends_total"`
	Fsyncs           int64  `json:"fsyncs_total"`
	TornBytesDropped int64  `json:"torn_bytes_dropped"`
}

// sharedWorkJSON mirrors gpssn.SharedWorkStats for /statsz. HitRate is
// the label memo's hit rate.
type sharedWorkJSON struct {
	SweepHits     int64   `json:"sweep_hits_total"`
	SweepMisses   int64   `json:"sweep_misses_total"`
	SweepRejected int64   `json:"sweep_rejected_total"`
	SweepEntries  int     `json:"sweep_entries"`
	SweepBytes    int64   `json:"sweep_bytes"`
	HitRate       float64 `json:"hit_rate"`
}
