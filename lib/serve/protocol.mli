(** The serve wire protocol: line-delimited JSON, one value per line.

    A client writes {e requests} (one JSON object per line) and reads
    {e events}.  The protocol is deliberately flat — every event carries
    an ["ev"] tag and, when job-scoped, the job ["id"] — so a client can
    be five lines of shell ([archex serve --pipe] under a heredoc) and
    the CI smoke test can grep the stream.

    {b Requests.}
    - [{"op":"mr", ...}] / [{"op":"ar", ...}] — synthesize over an EPS
      template (the paper's base template, or the scaling family when
      ["generators"] is given).  Fields: optional ["id"] (assigned when
      absent), ["r_star"] (default 2e-10), ["generators"],
      ["deadline_s"], ["max_nodes"], ["bdd_limit"], ["jobs"].  A
      ["backend"] field, which journals written before the single-search
      solver carry, is ignored.
    - [{"op":"analyze", ...}] — reliability of the template's {e full}
      candidate configuration (every candidate edge selected): the
      maximal architecture the template can express.
    - [{"op":"ping"}], [{"op":"stats"}], [{"op":"shutdown"}] — control.

    {b Events} (server → client): ["hello"], ["accepted"] (with
    ["degraded"] and the admission reason when load-shed into degraded
    mode), ["rejected"] (typed ["reason"]: ["queue-full"],
    ["too-large"], ["bad-request"]), ["started"], ["progress"],
    ["retry"] (with ["backoff_s"] and the typed error), ["done"] (with
    ["status"], ["verdict"], figures), ["pong"], ["stats"],
    ["draining"], ["bye"]. *)

type op = Mr | Ar | Analyze

val op_name : op -> string

type job = {
  id : string;
  op : op;
  r_star : float;
  generators : int option;      (** scaling family; [None] = base *)
  deadline_s : float option;
  max_nodes : int option;
  bdd_limit : int option;
  jobs : int;                   (** per-sink analysis domains *)
}

type request =
  | Job of job
  | Ping
  | Stats
  | Shutdown

val parse_request :
  assign_id:(unit -> string) -> string -> (request, string) result
(** Parse one request line.  [assign_id] supplies an id when the client
    sent none.  The error string is a human-readable reason suitable for
    a ["rejected"]/["bad-request"] event. *)

val job_to_json : job -> Archex_obs.Json.t
(** Canonical re-rendering of a job spec — what the journal stores, and
    what recovery parses back. *)

val job_of_json : Archex_obs.Json.t -> (job, string) result

(** Event builders — every constructor renders one NDJSON-safe object. *)

val hello : proto:int -> pid:int -> Archex_obs.Json.t
val accepted :
  id:string -> degraded:string option -> queue_depth:int ->
  Archex_obs.Json.t
val rejected : id:string -> reason:string -> detail:string ->
  Archex_obs.Json.t
val started : id:string -> attempt:int -> Archex_obs.Json.t
val progress : id:string -> Archex_obs.Event.t -> Archex_obs.Json.t
val retry :
  id:string -> attempt:int -> backoff_s:float ->
  error:Archex_resilience.Error.t -> Archex_obs.Json.t
val done_ :
  id:string -> status:string -> verdict:string -> attempts:int ->
  degraded:bool -> elapsed_s:float ->
  ?cost:float -> ?reliability:float -> ?iterations:int ->
  ?error:Archex_resilience.Error.t -> unit -> Archex_obs.Json.t
val pong : unit -> Archex_obs.Json.t
val draining : pending:int -> Archex_obs.Json.t
val bye : exit_code:int -> Archex_obs.Json.t
