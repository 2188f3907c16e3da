(** Deterministic work-counter observability layer.

    Wall-clock numbers are meaningless on small or contended hosts (a
    single-core container reports ~1x "speedups" for every parallel
    kernel), so the bench harness checks the paper's complexity claims
    through {e machine-independent operation counts} instead: distance
    evaluations, BBD node visits, MWU rounds, simplex pivots,
    oracle calls. This module is the registry those counts live in,
    together with three structured views over them:

    - {!Hist} — deterministic log2-bucketed histograms of per-event
      magnitudes (nodes visited {e per query}, pivots {e per solve}),
      distinguishing "O(log n) everywhere" from "O(log n) on average
      with a heavy tail";
    - {!Trace} — a bounded in-memory ring of span begin/end events with
      attached counter deltas, exportable as JSONL or Chrome trace-event
      JSON (Perfetto-loadable);
    - {!Budget} — declarative complexity budgets: fit a log-log slope to
      a counter-vs-n series and hard-fail when the fitted exponent
      deviates from the declared Table 1 shape.

    Design constraints, in order:

    - {b Deterministic.} A counter counts algorithmic events, never
      scheduling events, so for the library's deterministic kernels the
      final counter values are bit-identical across runs and across
      [CSO_NUM_DOMAINS] settings (enforced by [test/suite_parallel.ml]
      and by the [fig_counters] bench). Histogram buckets are pure
      functions of observed magnitudes and inherit the same guarantee.
    - {b Parallel-safe.} Cells are [Atomic.t]; increments commute, so
      instrumented code inside [Cso_parallel.Pool] bodies needs no extra
      locking and no per-domain aggregation step.
    - {b Cheap when off.} [CSO_OBS=0] (or [set_enabled false]) reduces
      every instrumentation site to a single atomic load and branch;
      counters stay at 0 and spans do not touch the clock.
    - {b Dependency-free.} Only the stdlib and one C stub: the default
      span clock, {!monotonic}.

    Counter names are dot-separated, [layer.structure.event], e.g.
    [geom.bbd.nodes_visited]; the full taxonomy is documented in
    DESIGN.md sections 3c–3d. *)

(** {2 Global switch} *)

val enabled : unit -> bool
(** Current state of the instrumentation switch. The initial value comes
    from the [CSO_OBS] environment variable: ["0"], ["false"], ["off"]
    and ["no"] (case-insensitive) disable it; anything else, including
    an unset variable, enables it. *)

val set_enabled : bool -> unit
(** Flip the switch at runtime (tests and benches; takes effect for all
    domains immediately). Counter values are preserved across flips. *)

(** {2 Monotonic counters} *)

type counter
(** A named monotonic event counter. Handles are interned: two
    [counter name] calls with the same name return the same cell, so
    modules declare their handles once at top level. *)

val counter : string -> counter
(** Find-or-create the counter registered under [name]. Thread-safe. *)

val name : counter -> string

val incr : counter -> unit
(** Add 1. No-op (one atomic load + branch) while disabled. *)

val add : counter -> int -> unit
(** Add [n] (no-op when [n = 0] or while disabled). [n] must be
    non-negative — counters are monotone between resets — and a negative
    [n] raises [Invalid_argument] even while disabled. *)

val value : counter -> int

val value_of : string -> int
(** Value of the counter registered under [name], or [0] if no such
    counter exists yet. *)

(** {2 Snapshots} *)

val snapshot : unit -> (string * int) list
(** All registered counters with their current values, sorted by name
    (zero-valued counters included). The snapshot is taken with the
    registry mutex held, so it is a consistent view of the counter table
    even while other domains intern new counters. The sort makes
    snapshots directly comparable across runs. *)

val with_delta : (unit -> 'a) -> 'a * (string * int) list
(** [with_delta f] runs [f] and returns its result together with the
    per-counter increments observed during the call (non-zero entries
    only, sorted by name). Counters created by [f] itself count from 0;
    counters registered concurrently by other domains during the window
    appear only if their value actually moved.

    Both snapshots are taken under the registry mutex, so the delta list
    is always well-formed. The one interleaving the mutex cannot rule
    out is {e attribution}: increments performed by concurrent unrelated
    work on other domains land inside the measured window and are
    counted as if [f] caused them. That is benign for every current
    caller — tests and benches measure one kernel at a time — but means
    [with_delta] is a measurement scope, not an isolation boundary. *)

val reset : unit -> unit
(** Zero every counter and histogram, drop every span record, and clear
    the trace ring. Registered handles stay valid. *)

(** {2 Hierarchical timed spans}

    Spans measure coarse phases ([gcso.solve], [mwu.run]), not hot
    loops. Nesting is tracked per domain, and a span's registry key is
    its slash-joined path from the outermost open span, so
    [with_span "solve" (fun () -> with_span "oracle" ...)] records under
    ["solve"] and ["solve/oracle"]. Span timings are {e not} part of
    {!snapshot} — they are wall-clock (nondeterministic) and live in a
    separate table so the deterministic counter artifacts stay
    byte-comparable. *)

val monotonic : unit -> float
(** Seconds on the system's monotonic clock ([CLOCK_MONOTONIC]), from
    an arbitrary fixed origin: wall time that never goes back. The
    default clock of spans and of [Cso_serve.Server]. *)

val set_clock : (unit -> float) -> unit
(** Install the time source used by spans (seconds, any fixed origin).
    Defaults to {!monotonic}; tests install fake clocks, and [csokitd
    --fake-clock] a constant one. *)

val with_span : string -> (unit -> 'a) -> 'a
(** Time [f] under the given span name (exceptions still record the
    partial time). Plain [f ()] while disabled. When tracing is enabled
    ({!Trace.set_enabled}), additionally pushes a {!Trace.event}
    carrying the counter deltas observed between span begin and end. *)

val span_stats : unit -> (string * int * float) list
(** [(path, calls, total_seconds)] per recorded span path, sorted by
    path. *)

(** {2 JSON} *)

val to_json : ?label:string -> ?extra:(string * string) list -> unit -> string
(** Render the current counters (plus non-empty histograms and span
    stats, if any) as a JSON object in the same hand-rolled style as the
    [BENCH_*.json] artifacts written by [bench/]:
    [{"bench": "obs", "label": ..., "counters": {...},
      "hists": {...}, "spans": [...]}].
    Keys are sorted and all strings are escaped, so two runs with
    identical counters produce identical [counters] sections.

    [extra] appends caller-supplied top-level members after the standard
    sections, each as [(key, raw_json_value)] in list order — the hook
    [csokitd] uses to splice its per-instance registry section into the
    [Stats] snapshot. The raw value is embedded verbatim and must
    already be valid JSON. *)

val counters_json : (string * int) list -> string
(** Render a counter snapshot (or delta) alone as a sorted JSON object,
    ["{\"a.b\": 1, ...}"] — the building block bench series rows use.
    Names are JSON-escaped. *)

val hists_json : (string * (int * int) list) list -> string
(** Render a histogram snapshot (or delta) as a sorted JSON object
    mapping each histogram name to its sparse bucket list,
    [{"geom.bbd.nodes_per_query": [[66, 3], [70, 1]]}]. *)

(** {2 Minimal JSON values}

    Hand-rolled emitters keep the artifacts byte-stable; this parser
    exists so the round-trip tooling ([csokit trace --in],
    [csokit budgets], the [trace-smoke] gate) stays dependency-free. It
    accepts the JSON this module and [bench/] emit — objects, arrays,
    strings with standard escapes (ASCII [\uXXXX] only), numbers,
    booleans, null — and is not a general-purpose validator. *)

module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Parse_error of string

  val escape : string -> string
  (** Escape a string for embedding in a JSON double-quoted literal
      (quotes, backslashes, control characters). *)

  val parse : string -> t
  (** Parse a complete JSON document. Raises {!Parse_error} on malformed
      input, including trailing garbage. *)

  val member : string -> t -> t option
  (** [member k (Obj ...)] looks up key [k]; [None] on missing key or
      non-object. *)

  val str : t -> string
  (** Project a [Str]; raises {!Parse_error} otherwise. *)

  val num : t -> float
  (** Project a [Num]; raises {!Parse_error} otherwise. *)

  val arr : t -> t list
  (** Project an [Arr]; raises {!Parse_error} otherwise. *)

  val obj : t -> (string * t) list
  (** Project an [Obj]; raises {!Parse_error} otherwise. *)
end

(** {2 Per-event magnitude histograms}

    Aggregate counters answer "how many nodes were visited in total";
    histograms answer "how many nodes does {e one} query visit" — the
    quantity Table 1 actually bounds. Buckets are powers of two: bucket
    [0] holds non-positive observations and bucket [b >= 1] holds
    magnitudes in [[2^(b-65), 2^(b-64))], so integer observations
    [>= 1] land in buckets 65.. and float observations (WSPD separation
    ratios) share the same scale. Bucket indices are pure functions of
    the observed value, and cells are [Atomic.t], so bucket count
    vectors are bit-identical across [CSO_NUM_DOMAINS] for
    deterministic kernels — even when observations happen inside
    parallel bodies. *)

module Hist : sig
  type t
  (** A named histogram with 128 atomic log2 buckets. Interned by name,
      like counters. *)

  val n_buckets : int
  (** 128. *)

  val hist : string -> t
  (** Find-or-create the histogram registered under [name].
      Thread-safe. *)

  val name : t -> string

  val bucket_of_int : int -> int
  (** [0] for [v <= 0]; otherwise [64 + floor(log2 v) + 1], clamped to
      the last bucket. [bucket_of_int 1 = 65]. *)

  val bucket_of_float : float -> int
  (** Same scale as {!bucket_of_int}: equal-valued int and float
      observations land in the same bucket. NaN and non-positive map to
      bucket [0]; [infinity] to the last bucket; magnitudes below 1 to
      buckets 1..64. *)

  val bucket_lo : int -> float
  (** Inclusive lower bound of a bucket ([0.] for bucket 0). *)

  val observe : t -> int -> unit
  (** Record one integer observation. No-op while disabled. *)

  val observe_float : t -> float -> unit
  (** Record one float observation. No-op while disabled. *)

  val buckets : t -> (int * int) list
  (** Sparse bucket counts [(bucket, count)], ascending by bucket,
      zero-count buckets omitted. *)

  val total : t -> int
  (** Number of observations recorded. *)

  val quantile_of_buckets : (int * int) list -> float -> float
  (** [quantile_of_buckets sparse q] estimates the [q]-quantile
      ([0. <= q <= 1.], clamped) of the observations summarized by a
      sparse bucket list: the inclusive lower bound ({!bucket_lo}) of
      the bucket holding the rank-[floor (q * (n-1))] observation —
      the same nearest-rank convention as the exact sorted-array
      percentile in [bench/util.ml], so the two estimators agree up to
      the bucket's factor-of-two width. [0.] when empty. *)

  val quantile : t -> float -> float
  (** [quantile h q] = [quantile_of_buckets (buckets h) q]. *)

  val snapshot : unit -> (string * (int * int) list) list
  (** All registered histograms with their sparse buckets, sorted by
      name (empty histograms included, with an empty bucket list). *)

  val with_delta :
    (unit -> 'a) -> 'a * (string * (int * int) list) list
  (** Like {!Obs.with_delta} but for histogram buckets: returns the
      per-bucket increments observed during the call, histograms with no
      new observations omitted. Same attribution caveat as
      [Obs.with_delta]. *)
end

(** {2 Structured trace events}

    A bounded in-memory ring of completed-span events. Off by default
    (even when counters are on): tracing snapshots the full counter
    table at span begin and end, which is too heavy for hot paths, so it
    is opt-in per run ([csokit trace], the [trace-smoke] gate, tests).
    When the global {!set_enabled} switch is off, no events are recorded
    regardless of this module's own toggle. *)

module Trace : sig
  type event = {
    ev_path : string;  (** Slash-joined span path, e.g. ["gcso.solve/mwu.run"]. *)
    ev_name : string;  (** Leaf span name. *)
    ev_depth : int;    (** Nesting depth at entry (0 = outermost). *)
    ev_domain : int;   (** Integer id of the domain that ran the span. *)
    ev_t0 : float;     (** Clock reading at span begin. *)
    ev_t1 : float;     (** Clock reading at span end. *)
    ev_deltas : (string * int) list;
        (** Non-zero counter increments between begin and end, sorted by
            name. Includes increments from nested spans and, on
            multi-domain runs, concurrent work (same attribution caveat
            as [Obs.with_delta]). *)
  }

  val enabled : unit -> bool

  val set_enabled : bool -> unit
  (** Toggle event capture. Capture also requires the global switch. *)

  val set_capacity : int -> unit
  (** Resize the ring (default 4096 events) and clear it. When full, the
      oldest events are overwritten and counted in {!dropped}. Raises
      [Invalid_argument] for capacities below 1. *)

  val clear : unit -> unit
  (** Drop all buffered events and reset the dropped count. *)

  val dropped : unit -> int
  (** Events overwritten since the last {!clear}/[reset]. *)

  val events : unit -> event list
  (** Buffered events, oldest first. Events are pushed at span {e end},
      so a parent span appears after its children. *)

  val to_jsonl : event list -> string
  (** One JSON object per line:
      [{"path": .., "name": .., "depth": .., "domain": ..,
        "t0": .., "t1": .., "deltas": {..}}]. *)

  val parse_jsonl : string -> event list
  (** Inverse of {!to_jsonl} (blank lines skipped). Raises
      {!Json.Parse_error} on malformed lines. *)

  val to_chrome : event list -> string
  (** Chrome trace-event JSON (["X"] complete events, microsecond
      timestamps, [tid] = domain id, counter deltas in [args]) —
      loadable in [chrome://tracing] and Perfetto. *)

  type phase = {
    ph_path : string;
    ph_calls : int;
    ph_total : float;          (** Summed duration of all calls. *)
    ph_self : float;           (** Total minus direct children, clamped at 0. *)
    ph_deltas : (string * int) list;  (** Merged counter deltas. *)
  }

  val phases : event list -> phase list
  (** Aggregate events into a per-path phase table, sorted by path.
      Self-time subtracts only {e direct} children (by path prefix) and
      is clamped at 0 so coarse clocks cannot report negative self. *)
end

(** {2 Flight recorder}

    A bounded ring of per-request records pushed by the [csokitd]
    request loop ([lib/serve]), one per completed request: its
    monotonically assigned id, decoded kind, connection id, the three
    phase durations (queue-wait, execute, flush — microseconds measured
    through the server's pluggable clock), and the outcome (["ok"],
    ["overloaded"], or ["error:<kind>"] for typed errors). Same ring
    discipline and JSONL round-trip style as {!Trace}; like counters, no
    records are captured while the global switch is off. *)

module Flight : sig
  type record = {
    fl_id : int;  (** Request id, monotone per server in arrival order. *)
    fl_kind : string;
        (** Decoded request kind (["solve"], ["balls_all"], ...); ["-"]
            for frames that never decoded (overload / frame errors). *)
    fl_conn : int;  (** Connection id, monotone per server. *)
    fl_queue_us : int;  (** Enqueue -> execute start. *)
    fl_exec_us : int;  (** Handler execution ([0] for pre-made replies). *)
    fl_flush_us : int;  (** Response ready -> last byte written. *)
    fl_outcome : string;
        (** ["ok"], ["overloaded"], or ["error:<kind>"]. *)
  }

  val set_capacity : int -> unit
  (** Resize the ring (default 1024 records) and clear it. When full,
      the oldest records are overwritten and counted in {!dropped}.
      Raises [Invalid_argument] for capacities below 1. *)

  val clear : unit -> unit
  (** Drop all buffered records and reset the dropped count. *)

  val dropped : unit -> int
  (** Records overwritten since the last {!clear}/[reset]. *)

  val push : record -> unit
  (** Append one record (oldest overwritten when full). No-op while the
      global switch is disabled. *)

  val records : unit -> record list
  (** Buffered records, oldest first. *)

  val to_jsonl : record list -> string
  (** One JSON object per line:
      [{"id": .., "kind": .., "conn": .., "queue_us": .., "exec_us": ..,
        "flush_us": .., "outcome": ..}]; [""] for the empty list. *)

  val parse_jsonl : string -> record list
  (** Exact inverse of {!to_jsonl} (blank lines skipped). Raises
      {!Json.Parse_error} on malformed lines. *)
end

(** {2 OpenMetrics / Prometheus text exporter} *)

module Metrics : sig
  (** Renders every registered counter and histogram as OpenMetrics
      text: two fixed metric families ([cso_counter_total] and
      [cso_hist]) with the dot-separated lib/obs name carried as an
      escaped [name] label. Histograms are exported with exact
      cumulative power-of-two buckets ([le] bounds from
      {!Hist.bucket_lo}; the mandatory [+Inf] bucket equals the
      count). All values are integers and names are sorted, so the text
      is byte-stable wherever the counter values are — bit-identical
      across [CSO_NUM_DOMAINS] for the deterministic kernels. *)

  val render : unit -> string
  (** Export the live registry. *)

  val render_of :
    counters:(string * int) list ->
    hists:(string * (int * int) list) list ->
    string
  (** Pure rendering of explicit snapshots (tests, deltas). *)

  val check : string -> (unit, string) result
  (** Stdlib-only well-formedness gate over {!render} output: HELP/TYPE
      lines present, samples parse, cumulative bucket counts are
      monotone over strictly ascending [le] bounds, the [+Inf] bucket
      equals the count sample, and re-rendering the parsed structure
      reproduces the input byte-for-byte. *)
end

(** {2 Machine-checked complexity budgets}

    A budget declares the asymptotic shape a counter series must have as
    a log-log exponent with a tolerance: O(n) work is slope 1, O(log n)
    or O(log^d n) per-query work is slope ~0 (polylog grows slower than
    any power), a round budget independent of n is slope 0 exactly.
    Fitting the slope of [log y] against [log x] by least squares turns
    "the BBD tree regressed to O(n) nodes per query" into a hard test
    failure instead of a silent slowdown. Budget tables live next to the
    kernels they describe ([Bbd_tree.budgets], [Gonzalez.budgets],
    [Mwu.budgets]) and are checked by
    [bench/fig_budgets], the [bench-smoke] gate, and [csokit budgets]. *)

module Budget : sig
  type t = {
    b_name : string;      (** Counter or series name the budget covers. *)
    b_expected : float;   (** Declared log-log exponent. *)
    b_tolerance : float;  (** Allowed absolute deviation of the fit. *)
    b_doc : string;       (** Where the bound comes from (Table 1 etc.). *)
  }

  val fit : (float * float) list -> float
  (** Least-squares slope of [log y] vs [log x] over the points with
      [x > 0 && y > 0]. Raises [Invalid_argument] when fewer than two
      positive points remain or all sizes coincide. *)

  val check : t -> (float * float) list -> (float, string) result
  (** [check b series] fits the exponent and compares it to the declared
      budget: [Ok fitted] within tolerance, [Error message] (including
      the budget's documentation string) otherwise. *)

  val row_json : t -> fitted:float -> points:(float * float) list -> string
  (** Render one budget-check result as the JSON row format used by
      [BENCH_budgets.json]: name/expected/tolerance/fitted/points/doc. *)
end
