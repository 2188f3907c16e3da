(** The [csokitd] session loop: concurrent connections over Unix / TCP
    sockets (or any pre-connected descriptor, e.g. a socketpair end),
    framed by {!Protocol.reader}, executed against a {!Registry}.

    {2 Execution model}

    The loop is a single-driver [select] multiplexer with batched
    execution: each {!step} accepts pending connections, drains readable
    sockets into per-connection frame readers, then gathers decoded
    requests — at most {e one per connection}, at most [batch] total —
    and executes them. A singleton batch runs inline; a larger batch
    fans out over the default {!Cso_parallel.Pool} ([Pool.map_array]),
    which is where the registry's per-entry mutexes earn their keep
    (heavy per-request work like [Balls_all] re-enters the pool and
    runs inline, as the pool guarantees). One-per-connection gathering
    is what makes a connection a session: its requests execute in
    order, and concurrency comes only from distinct connections.
    Responses are appended to per-connection output buffers and flushed
    with partial-write / [EINTR] looping.

    {2 Admission control}

    At most [max_inflight] decoded requests may be queued across all
    connections. A frame that arrives above that bound is answered with
    the typed {!Protocol.Overloaded} reply — it is never decoded, takes
    no admission slot, touches no state, and the connection remains
    usable. Undecodable payloads get [Error (Bad_frame, _)]; an
    oversized frame gets [Error (Too_large, _)] and the connection is
    closed after the reply flushes (binary framing cannot resynchronize
    past an untrusted length). All three replies are queued in arrival
    position, because responses carry no correlation ids: the i-th reply
    on a connection always answers its i-th frame.

    {2 Replies that cannot be delivered}

    A reply whose payload would exceed {!Protocol.max_frame} (a
    [Balls_all] over a large instance, say) is not sent: the client's
    reader would refuse it and poison the connection. The request gets
    [Error (Too_large, _)] naming the reply's size and the limit
    instead, and the connection stays open — the refused reply never
    reached the wire, so the framing is intact.

    {!create} sets the process's SIGPIPE disposition to ignore, so a
    peer that closes mid-reply costs only its own connection: the write
    fails with [EPIPE], the rest of its replies are dropped, and the
    connection is reaped.

    {2 Observability}

    [serve.requests], [serve.responses], [serve.overloads],
    [serve.frame_errors], [serve.connections], [serve.bytes_in] and
    [serve.bytes_out] count the deterministic request flow; the
    [serve.request_us] histogram records per-request handler latency in
    microseconds, with a per-kind twin [serve.request_us.<kind>]
    (interned on first use, named by {!Protocol.request_kind}).

    Every arriving frame — admitted, overloaded or undecodable — is
    assigned a monotone request id at enqueue, and its three phases
    (queue wait: enqueue to execute start; execute: handler duration;
    flush: response ready to last byte written) are timed with the
    {!set_clock} clock. When the response's final byte leaves the
    socket, a {!Cso_obs.Obs.Flight} record is pushed from the driver
    thread, so ring order follows flush-completion order. Records of
    responses dropped by a vanished peer ([EPIPE]) are lost with them.

    While [lib/obs] is disabled ([CSO_OBS=0]) none of this touches the
    clock or the ring, and replies are byte-identical to an enabled
    run — the kill-switch identity the serve suite pins. *)

type config = {
  mode : Protocol.mode;  (** Wire codec for every connection. *)
  max_inflight : int;  (** Admission bound on queued requests ([>= 1]). *)
  batch : int;  (** Max requests executed per step ([>= 1]). *)
}

val default_config : config
(** [Binary], [max_inflight = 256], [batch = 32]. *)

type t

val create : ?config:config -> Registry.t -> t
(** A server with no listeners or connections yet. Sets SIGPIPE to be
    ignored for the whole process (see above). *)

val listen_unix : t -> string -> unit
(** Bind and listen on a Unix-domain socket path (unlinking any stale
    socket first). Raises [Unix.Unix_error] on bind failures. *)

val listen_tcp : t -> port:int -> unit
(** Bind and listen on [127.0.0.1:port]. *)

val add_connection : t -> Unix.file_descr -> unit
(** Adopt a pre-connected descriptor (socketpair ends in tests, benches
    and the in-process client). The server owns and closes it. *)

val step : ?timeout:float -> t -> bool
(** Run one multiplexer round: wait up to [timeout] seconds (default
    [0.], i.e. poll; negative blocks) for readiness, then accept / read
    / execute / flush once. Returns [false] once the server has
    processed a [Shutdown] and flushed every reply — after which all
    descriptors are closed and further [step]s return [false]. *)

val run : t -> unit
(** [step] until shutdown, blocking while idle. *)

val stop : t -> unit
(** Request shutdown from outside (as if a [Shutdown] frame arrived). *)

val close : t -> unit
(** Close every descriptor (listeners and connections) immediately,
    without flushing. Idempotent; [step] afterwards returns [false]. *)

val connections : t -> int
(** Live connection count (listeners excluded). *)

val set_clock : t -> (unit -> float) -> unit
(** Clock for request-phase timing — the latency histograms and the
    flight-recorder phases (seconds; defaults to
    [Cso_obs.Obs.monotonic]; the daemon installs a constant
    [fun () -> 0.] under [--fake-clock] so every timing is
    deterministically zero). *)
