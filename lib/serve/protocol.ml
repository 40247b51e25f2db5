module J = Archex_obs.Json

type op = Mr | Ar | Analyze

let op_name = function Mr -> "mr" | Ar -> "ar" | Analyze -> "analyze"

let op_of_name = function
  | "mr" -> Some Mr
  | "ar" -> Some Ar
  | "analyze" -> Some Analyze
  | _ -> None

type job = {
  id : string;
  op : op;
  r_star : float;
  generators : int option;
  deadline_s : float option;
  max_nodes : int option;
  bdd_limit : int option;
  jobs : int;
}

type request = Job of job | Ping | Stats | Shutdown

(* Field accessors over one request object; every failure renders a
   reason naming the field, so a bad-request event is actionable. *)
let str_field j name =
  Option.bind (J.mem name j) J.to_str

let num_field j name =
  Option.bind (J.mem name j) J.to_float

let int_field j name ~what =
  match J.mem name j with
  | None -> Ok None
  | Some v -> (
      match J.to_float v with
      | Some f when Float.is_integer f && f > 0. ->
          Ok (Some (int_of_float f))
      | _ -> Error (Printf.sprintf "%s: %S must be a positive integer"
                      what name))

let job_of_fields ~id j =
  let ( let* ) = Result.bind in
  let what = Printf.sprintf "job %s" id in
  let r_star =
    match num_field j "r_star" with Some r -> r | None -> 2e-10
  in
  let* () =
    if r_star > 0. && r_star < 1. then Ok ()
    else Error (Printf.sprintf "%s: \"r_star\" must be in (0, 1)" what)
  in
  let* generators = int_field j "generators" ~what in
  let* deadline_s =
    match num_field j "deadline_s" with
    | None -> (match J.mem "deadline_s" j with
               | None -> Ok None
               | Some _ ->
                   Error (Printf.sprintf
                            "%s: \"deadline_s\" must be a number" what))
    | Some d when d > 0. -> Ok (Some d)
    | Some _ ->
        Error (Printf.sprintf "%s: \"deadline_s\" must be positive" what)
  in
  let* max_nodes = int_field j "max_nodes" ~what in
  let* bdd_limit = int_field j "bdd_limit" ~what in
  let* jobs = int_field j "jobs" ~what in
  let jobs = Option.value jobs ~default:1 in
  let* op =
    match str_field j "op" with
    | Some s -> (
        match op_of_name s with
        | Some op -> Ok op
        | None -> Error (Printf.sprintf "unknown op %S" s))
    | None -> Error "missing \"op\""
  in
  Ok { id; op; r_star; generators; deadline_s; max_nodes; bdd_limit; jobs }

let parse_request ~assign_id line =
  match J.of_string line with
  | Error msg -> Error (Printf.sprintf "malformed JSON: %s" msg)
  | Ok j -> (
      match str_field j "op" with
      | Some "ping" -> Ok Ping
      | Some "stats" -> Ok Stats
      | Some "shutdown" -> Ok Shutdown
      | Some ("mr" | "ar" | "analyze") ->
          let id =
            match str_field j "id" with
            | Some id when id <> "" -> id
            | _ -> assign_id ()
          in
          Result.map (fun job -> Job job) (job_of_fields ~id j)
      | Some s -> Error (Printf.sprintf "unknown op %S" s)
      | None -> Error "missing \"op\"")

let job_to_json job =
  let opt name f = function None -> [] | Some v -> [ (name, f v) ] in
  let num_i n = J.Num (float_of_int n) in
  J.Obj
    ([ ("id", J.Str job.id);
       ("op", J.Str (op_name job.op));
       ("r_star", J.Num job.r_star) ]
    @ opt "generators" num_i job.generators
    @ opt "deadline_s" (fun d -> J.Num d) job.deadline_s
    @ opt "max_nodes" num_i job.max_nodes
    @ opt "bdd_limit" num_i job.bdd_limit
    @ [ ("jobs", num_i job.jobs) ])

let job_of_json j =
  match str_field j "id" with
  | Some id when id <> "" -> job_of_fields ~id j
  | _ -> Error "missing \"id\""

(* --- events --- *)

let ev tag fields = J.Obj (("ev", J.Str tag) :: fields)
let num_i n = J.Num (float_of_int n)

let hello ~proto ~pid =
  ev "hello" [ ("proto", num_i proto); ("pid", num_i pid) ]

let accepted ~id ~degraded ~queue_depth =
  ev "accepted"
    ([ ("id", J.Str id) ]
    @ (match degraded with
      | None -> [ ("degraded", J.Bool false) ]
      | Some why -> [ ("degraded", J.Bool true); ("why", J.Str why) ])
    @ [ ("queue_depth", num_i queue_depth) ])

let rejected ~id ~reason ~detail =
  ev "rejected"
    [ ("id", J.Str id); ("reason", J.Str reason); ("detail", J.Str detail) ]

let started ~id ~attempt =
  ev "started" [ ("id", J.Str id); ("attempt", num_i attempt) ]

let progress ~id event =
  let fields =
    match Archex_obs.Event.to_json event with
    | J.Obj fields -> fields
    | other -> [ ("event", other) ]
  in
  ev "progress" (("id", J.Str id) :: fields)

let retry ~id ~attempt ~backoff_s ~error =
  ev "retry"
    [ ("id", J.Str id);
      ("attempt", num_i attempt);
      ("backoff_s", J.Num backoff_s);
      ("error", Archex_resilience.Error.to_json error) ]

let done_ ~id ~status ~verdict ~attempts ~degraded ~elapsed_s ?cost
    ?reliability ?iterations ?error () =
  let opt name f = function None -> [] | Some v -> [ (name, f v) ] in
  ev "done"
    ([ ("id", J.Str id);
       ("status", J.Str status);
       ("verdict", J.Str verdict);
       ("attempts", num_i attempts);
       ("degraded", J.Bool degraded);
       ("elapsed_s", J.Num elapsed_s) ]
    @ opt "cost" (fun c -> J.Num c) cost
    @ opt "reliability" (fun r -> J.Num r) reliability
    @ opt "iterations" num_i iterations
    @ opt "error" Archex_resilience.Error.to_json error)

let pong () = ev "pong" []

let draining ~pending = ev "draining" [ ("pending", num_i pending) ]

let bye ~exit_code = ev "bye" [ ("exit_code", num_i exit_code) ]
