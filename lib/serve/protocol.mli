(** Wire protocol of the [csokitd] clustering service.

    One request/response pair per frame, in either of two encodings
    carried over the same socket kinds:

    - {b binary}: a 4-byte big-endian unsigned payload length followed
      by a tagged binary payload (ints are 8-byte big-endian two's
      complement, floats are their IEEE-754 bit patterns, strings are
      length-prefixed bytes) — compact and bit-exact by construction;
    - {b jsonl}: one JSON object per newline-terminated line, in the
      same hand-rolled style as the [BENCH_*.json] artifacts. Floats are
      carried as 17-significant-digit strings ({!Cso_io.Formats}'s
      round-trip-safe rendering), so the JSONL codec is bit-exact too,
      including infinite rectangle bounds. Integers ride JSON numbers,
      which the parser holds as floats: JSONL is exact for magnitudes
      up to [2{^53}] (binary carries the full 63 bits — ids here are
      dense insertion indices, far below either bound).

    Both directions of both codecs round-trip bit-identically
    ([decode (encode v) = Ok v], pinned by the
    [serve.protocol_roundtrip] fuzz check), and a decoder never raises
    on hostile input: malformed payloads yield [Error _], oversized
    frames are flagged by the {!reader} before a payload is ever
    assembled (the [serve.protocol_malformed] fuzz check). *)

type mode = Binary | Jsonl

val mode_to_string : mode -> string
val mode_of_string : string -> (mode, string) result

(** {2 Messages} *)

type request =
  | Load of {
      name : string;
      points : Cso_metric.Point.t array;
      rects : Cso_geom.Rect.t array;
      k : int;
      z : int;
      eps : float;
      rounds : int option;
      drift : float;
    }  (** Create a resident instance (incremental GCSO + dynamic trees)
          and insert the given points. *)
  | Prepare of string
      (** Build the static packed BBD tree over the instance's live
          points, enabling {!Balls_all}. Invalidated by updates. *)
  | Solve of string
      (** Tri-criteria solve (served from the incremental driver's cache
          unless drift forces a re-solve). *)
  | Query_ball of {
      name : string;
      center : Cso_metric.Point.t;
      radius : float;
      eps : float;
    }  (** Ball over the live population via the dynamic tree. *)
  | Balls_all of { name : string; radius : float; eps : float }
      (** One ball per live point, batched through the pooled
          [Bbd_tree.balls_all] path; requires {!Prepare}. *)
  | Assign of string
      (** Assign every live point to its nearest last-solve center —
          fresh assignments between re-solves, no solve paid. *)
  | Insert of { name : string; point : Cso_metric.Point.t }
  | Delete of { name : string; id : int }
  | Insert_rect of { name : string; rect : Cso_geom.Rect.t }
      (** Add an outlier rectangle; replied with [Inserted rect_id]
          (external rect ids are dense creation order, never reused). *)
  | Delete_rect of { name : string; id : int }
      (** Remove an outlier rectangle by external rect id; refused with
          an [Orphaned] error if some live point would be left in no
          rectangle. *)
  | Stats
      (** Counter / histogram / span snapshot ([lib/obs]) plus the
          per-instance registry section. *)
  | Metrics  (** OpenMetrics text export ({!Cso_obs.Obs.Metrics}). *)
  | Flight
      (** Recent per-request flight-recorder ring as JSONL
          ({!Cso_obs.Obs.Flight}). *)
  | Shutdown

val request_kind : request -> string
(** The request's kind tag — the same lowercase word the JSONL codec
    uses ([load], [ball], [balls_all], ...). Names the per-kind latency
    histogram [serve.request_us.<kind>] and the flight-record [kind]
    field. *)

type err_kind =
  | Bad_request  (** Decodable frame, invalid contents. *)
  | Unknown_instance
  | Already_loaded
  | Not_prepared  (** {!Balls_all} before {!Prepare}. *)
  | No_solution  (** {!Assign} before any {!Solve}. *)
  | Bad_frame  (** Undecodable payload. *)
  | Too_large
      (** A request frame above {!max_frame} (the connection closes), or
          a reply that would be (the reply is refused; the connection
          stays open). *)
  | Orphaned
      (** {!Delete_rect} refused: the message names the rect and a
          witness point that no other rectangle covers. *)

val err_kind_to_string : err_kind -> string

type response =
  | Ok_reply  (** [Load] / [Prepare] / [Delete] acknowledgement. *)
  | Inserted of int  (** External id of the inserted point. *)
  | Solved of {
      centers : int list;  (** External ids of the center points. *)
      outliers : int list;  (** Rectangle indices. *)
      radius : float;
      rounds_per_guess : int;
      guesses : int;
      re_solves : int;  (** Driver's lifetime re-solve count. *)
      cached : bool;  (** True when served without a re-solve. *)
    }
  | Ball of int list  (** External ids, ascending. *)
  | Balls of int list array
      (** Row per live point (ascending external id); each row keeps
          the canonical-node expansion order of the static tree. *)
  | Assigned of (int * int) list
      (** [(point external id, center external id)], ascending by
          point id. *)
  | Stats_reply of string
      (** [Obs.to_json] blob with the per-instance [instances]
          section. *)
  | Metrics_reply of string  (** OpenMetrics text. *)
  | Flight_reply of string  (** Flight-recorder ring as JSONL. *)
  | Error of err_kind * string
  | Overloaded
      (** Typed admission-control reply: the request was {e not}
          queued; the connection stays usable. *)
  | Bye  (** {!Shutdown} acknowledgement. *)

(** {2 Codec}

    [encode_*] produce a complete frame, ready for the wire (length
    prefix included in [Binary] mode, trailing newline in [Jsonl]
    mode). [decode_*] consume one {e payload} as extracted by the
    {!reader} (no length prefix, no newline). *)

val max_frame : int
(** Upper bound on a payload's size in bytes (16 MiB). *)

val encode_request : mode -> request -> string
val decode_request : mode -> string -> (request, string) result
val encode_response : mode -> response -> string
val decode_response : mode -> string -> (response, string) result

val payload_length : mode -> string -> int
(** The payload size of a frame built by [encode_*] (the frame minus
    its length prefix or newline): what a {!reader} compares against
    {!max_frame}. *)

(** {2 Incremental frame extraction}

    A [reader] accumulates arbitrarily-fragmented bytes from a socket
    and yields complete payloads; frames may arrive one byte at a time
    or many per read. An oversized frame poisons the reader (binary
    framing cannot resynchronize past an untrusted length), and every
    later feed yields nothing. *)

type reader

val reader : mode -> reader

val feed : reader -> bytes -> int -> [ `Frame of string | `Oversized of int ] list
(** [feed r buf n] consumes [buf.[0 .. n-1]], returning the payloads
    completed by those bytes in arrival order. [`Oversized len] is
    emitted at most once, after which the reader is poisoned. *)

val reader_pending : reader -> int
(** Bytes buffered towards an incomplete frame (0 at a frame
    boundary — a clean EOF). *)

val reader_poisoned : reader -> bool
