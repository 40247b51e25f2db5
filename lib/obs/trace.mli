(** Structured tracing: nested wall-clock spans with attributes.

    A tracer either discards everything ({!null} — every operation is an
    early return, no allocation) or emits one JSON object per span
    boundary / instant event to a caller-supplied sink, which makes NDJSON
    export a one-liner.  Span timestamps come from {!Clock}.

    Tracers are domain-safe: span ids come from one atomic counter,
    nesting depth is domain-local, and emission is serialized through a
    mutex, so any number of domains (e.g. the workers of an
    [Archex_parallel.Pool]) can trace into one sink.  Every record
    carries the emitting domain's id in a ["dom"] field; spans from
    different domains interleave freely in the file, but each domain's
    own begin/end stream is properly nested — {!validate} and
    {!tree_of_events} group by it.

    Event schema (one object per line):
    - [{"ts", "ev":"begin", "name", "id", "dom", "depth", "attrs"}]
    - [{"ts", "ev":"end",   "name", "id", "dom", "depth", "dur"}]
    - [{"ts", "ev":"event", "name", "dom", "depth", "attrs"}]

    Records may additionally carry a ["lane"] tag: lanes are parallel
    sub-streams of one domain (the runtime-events bridge emits GC pause
    spans into a ["gc"] lane per domain).  Validation and tree
    reconstruction group by the (domain, lane) pair, so each lane only
    has to be internally ordered and nested. *)

type t

val null : t
(** Disabled tracer: [with_span _ _ f] is exactly [f ()]. *)

val make : (Json.t -> unit) -> t
(** Tracer emitting every event to the given sink. *)

val memory : unit -> t * (unit -> Json.t list)
(** In-memory tracer plus an accessor for the events captured so far (in
    emission order) — for tests and pretty-printing. *)

val enabled : t -> bool

val with_span : ?attrs:(string * Json.t) list -> t -> string ->
  (unit -> 'a) -> 'a
(** Run the thunk inside a named span.  The end event is emitted even when
    the thunk raises. *)

val instant : ?attrs:(string * Json.t) list -> t -> string -> unit
(** Zero-duration event at the current nesting depth. *)

val emit_raw : t -> (string * Json.t) list -> unit
(** Emit a fully-formed record — the caller supplies every field,
    ["ts"] included — serialized under the tracer mutex so it never
    tears the sink's line stream.  This is how out-of-band producers
    (the {!Runtime_events_bridge}) merge their own lanes into the trace;
    the caller owns the injected lane's ordering and nesting, which
    {!validate} checks like any other lane.  No-op on {!null}. *)

val current_depth : t -> dom:int -> int
(** Number of spans domain [dom] currently has open (as of the last
    begin/end it emitted) — readable from any domain.  [0] for a domain
    that never traced or has closed everything. *)

(** {1 Pretty tree}

    Reconstruction of the span hierarchy from an exported event stream. *)

type tree = {
  name : string;
  dur : float option;        (** [None] for instant events *)
  attrs : (string * Json.t) list;
  children : tree list;
}

val tree_of_events : Json.t list -> tree list
(** Rebuild the forest from begin/end/event records.  Events are first
    grouped by their ["dom"] tag (absent tags form one group, so
    single-domain traces behave as before) and one forest is built per
    domain, concatenated in order of first appearance.  End events are
    matched to their begin by span id (by name when either side has no
    id), so a truncated trace degrades gracefully: a span whose end line
    was lost — trailing or interior — becomes a node with [dur = None]
    (instant-like) holding the children seen so far, and an end without a
    matching begin is dropped. *)

val group_by_dom : Json.t list -> (string * Json.t list) list
(** Partition an event stream by its (domain, lane) key — ["1"],
    ["1/gc"], [""] for untagged records — preserving order within each
    group and the order of first appearance across groups.  This is the
    grouping {!tree_of_events} and {!validate} use; exposed so other
    exporters (e.g. {!Chrome_trace}) can assign one track per group. *)

val validate : (int * Json.t) list -> (int * string) list
(** Structural validation of a numbered event stream (the [int] is the
    source line number, echoed in the errors): well-formed
    begin/end/event records, and — per emitting domain, keyed by the
    ["dom"] tag, since spans from different domains interleave in a
    multi-domain trace — non-decreasing timestamps, [depth] fields
    consistent with the begin/end nesting, no end without a begin, and no
    span left open at end of stream.  Events without a ["dom"] tag share
    one implicit domain, so single-domain traces are validated exactly as
    before.  Empty result = valid. *)

val pp_tree : Format.formatter -> tree list -> unit
(** Indented rendering, one node per line:
    [solve (0.123s) vars=94 constraints=120]. *)
