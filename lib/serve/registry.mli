(** Resident prepared instances behind the [csokitd] request surface.

    Each named entry owns an incremental GCSO driver
    ({!Cso_core.Gcso_general.Incremental}: a dynamic BBD tree, a
    streaming drift sketch and the cached tri-criteria report), an
    optional {e static} packed BBD tree built over the live points by
    [Prepare] (serving the pooled {!Cso_geom.Bbd_tree.balls_all} batch
    path until the next update invalidates it), and the coordinates of
    the last solve's centers (serving [Assign] between re-solves
    without paying a solve).

    {2 Locking discipline}

    The table lock guards the name -> entry map; every entry operation
    runs under that entry's own mutex. {!handle} is therefore safe to
    call concurrently from many pool domains — concurrent requests to
    {e different} instances proceed in parallel, requests to the same
    instance serialize, and each response is a pure function of the
    request and the entry state it observed. The server's stress test
    pins this: N interleaved clients must read the same bytes a serial
    replay reads. *)

type t

val create : unit -> t

val names : t -> string list
(** Loaded instance names, sorted. *)

val handle : t -> Protocol.request -> Protocol.response
(** Execute one request against the registry. Never raises: invalid
    requests become typed {!Protocol.Error} replies ([Shutdown] is
    acknowledged with [Bye]; actually stopping the event loop is the
    server's job). [Stats] snapshots [lib/obs] plus a per-instance
    [instances] section (live points, lifetime inserts/deletes,
    re-solves, cached-centers age, solved/prepared flags — all
    deterministic driver state); [Metrics] renders
    {!Cso_obs.Obs.Metrics} OpenMetrics text; [Flight] dumps the
    {!Cso_obs.Obs.Flight} ring as JSONL. *)
