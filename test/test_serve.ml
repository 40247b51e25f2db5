(* Tests for the serve daemon: deterministic retry backoff, admission
   control and load shedding, the crash-safe journal's kill-and-restart
   matrix, the Budget.reseat retry-deadline regression, registry write
   atomicity, and a serve-vs-CLI differential (the daemon must return
   bit-identical answers to a direct synthesis run). *)

module J = Archex_obs.Json
module Reg = Archex_obs.Run_registry
module Budget = Archex_resilience.Budget
module Error = Archex_resilience.Error
module Faults = Archex_resilience.Faults
module Backoff = Archex_serve.Backoff
module Admission = Archex_serve.Admission
module Protocol = Archex_serve.Protocol
module Journal = Archex_serve.Journal
module Engine = Archex_serve.Engine
module Server = Archex_serve.Server

let checkb = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let checkf eps = Alcotest.(check (float eps))

let fresh_dir =
  let counter = ref 0 in
  fun name ->
    incr counter;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "archex-serve-test-%d-%s-%d" (Unix.getpid ()) name
           !counter)
    in
    (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d

let job ?(id = "j1") ?(op = Protocol.Mr) ?(r_star = 1e-3) ?generators
    ?deadline_s ?bdd_limit () =
  { Protocol.id; op; r_star; generators; deadline_s; max_nodes = None;
    bdd_limit; jobs = 1 }

(* ------------------------------------------------------------------ *)
(* Backoff                                                             *)

let test_backoff_deterministic () =
  let draws b = List.init 10 (fun _ -> Backoff.next b) in
  let a = Backoff.create ~seed:42 () in
  let b = Backoff.create ~seed:42 () in
  checkb "same seed, same delay sequence" true (draws a = draws b);
  let c = Backoff.create ~seed:43 () in
  checkb "different seed, different sequence" true (draws a <> draws c)

let test_backoff_bounds () =
  let base = 0.05 and cap = 5.0 in
  let b = Backoff.create ~seed:7 ~base ~cap () in
  List.iter
    (fun d ->
      checkb "delay >= base" true (d >= base);
      checkb "delay <= cap" true (d <= cap))
    (List.init 100 (fun _ -> Backoff.next b))

let test_backoff_reset () =
  let b = Backoff.create ~seed:11 () in
  let first = Backoff.next b in
  ignore (Backoff.next b);
  ignore (Backoff.next b);
  Backoff.reset b;
  checkf 0.0 "reset replays the first draw" first (Backoff.next b)

let test_backoff_validation () =
  Alcotest.check_raises "base must be positive"
    (Invalid_argument "Backoff.create: need 0 < base <= cap") (fun () ->
      ignore (Backoff.create ~base:0. ()));
  Alcotest.check_raises "base must not exceed cap"
    (Invalid_argument "Backoff.create: need 0 < base <= cap") (fun () ->
      ignore (Backoff.create ~base:2. ~cap:1. ()))

(* ------------------------------------------------------------------ *)
(* Admission                                                           *)

let adm = Admission.default

let test_admission_accept () =
  (match Admission.decide adm ~queue_depth:0 (job ()) with
  | Admission.Accept -> ()
  | _ -> Alcotest.fail "an idle queue accepts outright");
  match Admission.validate adm with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let test_admission_too_large () =
  let oversized = job ~generators:(adm.Admission.max_generators + 1) () in
  (match Admission.decide adm ~queue_depth:0 oversized with
  | Admission.Reject { reason = "too-large"; _ } -> ()
  | _ -> Alcotest.fail "oversized job must be rejected too-large");
  (* size is checked before queue state: a full queue never masks it *)
  match
    Admission.decide adm ~queue_depth:adm.Admission.capacity oversized
  with
  | Admission.Reject { reason = "too-large"; _ } -> ()
  | _ -> Alcotest.fail "too-large outranks queue-full"

let test_admission_queue_full () =
  match Admission.decide adm ~queue_depth:adm.Admission.capacity (job ()) with
  | Admission.Reject { reason = "queue-full"; _ } -> ()
  | _ -> Alcotest.fail "a full queue rejects queue-full"

let test_admission_shed_watermark () =
  let depth =
    int_of_float
      (ceil
         (adm.Admission.shed_watermark
         *. float_of_int adm.Admission.capacity))
  in
  match Admission.decide adm ~queue_depth:depth (job ()) with
  | Admission.Accept_degraded "queue-pressure" -> ()
  | _ -> Alcotest.fail "above the watermark, jobs are admitted degraded"

let test_admission_tight_deadline () =
  let tight = job ~deadline_s:(adm.Admission.tight_deadline_s /. 2.) () in
  match Admission.decide adm ~queue_depth:0 tight with
  | Admission.Accept_degraded "tight-deadline" -> ()
  | _ -> Alcotest.fail "a tight deadline admits degraded"

let test_admission_injected_overload () =
  (* the Queue_overload fault fires the shed path with an empty queue *)
  let plan = Faults.plan [ (Faults.Queue_overload, Faults.At 1) ] in
  Faults.with_plan plan (fun () ->
      match Admission.decide adm ~queue_depth:0 (job ()) with
      | Admission.Accept_degraded "queue-pressure" -> ()
      | _ -> Alcotest.fail "injected overload sheds like real pressure")

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)

let test_protocol_roundtrip () =
  let j =
    job ~id:"rt" ~op:Protocol.Analyze ~r_star:1e-6 ~generators:7
      ~deadline_s:2.5 ~bdd_limit:1024 ()
  in
  match Protocol.job_of_json (Protocol.job_to_json j) with
  | Error msg -> Alcotest.fail msg
  | Ok j' ->
      checkb "job survives a json round-trip (journal storage)" true
        (j = j')

(* Journals written while jobs could pick a solver backend store a
   "backend" field, "lp-bb" included; recovery must still read them. *)
let test_protocol_legacy_backend () =
  let legacy =
    {|{"id":"old","op":"mr","r_star":0.001,"backend":"lp-bb","jobs":1}|}
  in
  match Archex_obs.Json.of_string legacy with
  | Error msg -> Alcotest.fail msg
  | Ok j -> (
      match Protocol.job_of_json j with
      | Error msg -> Alcotest.failf "legacy job rejected: %s" msg
      | Ok j' ->
          checkb "legacy job reads as the same job" true
            (j' = job ~id:"old" ~r_star:0.001 ()))

let test_protocol_parse_errors () =
  let parse line = Protocol.parse_request ~assign_id:(fun () -> "x") line in
  let mentions needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1))
    in
    go 0
  in
  (match parse {|{"op":"mr","r_star":1.5}|} with
  | Error msg -> checkb "error names r_star" true (mentions "r_star" msg)
  | Ok _ -> Alcotest.fail "r_star outside (0,1) must be rejected");
  (match parse {|{"op":"frobnicate"}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown op must be rejected");
  (match parse {|{"op":"mr","generators":-3}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative generators must be rejected");
  (match parse {|{"op":"ping"}|} with
  | Ok Protocol.Ping -> ()
  | _ -> Alcotest.fail "ping parses");
  match parse {|{"op":"mr"}|} with
  | Ok (Protocol.Job j) -> check_str "missing id is assigned" "x" j.Protocol.id
  | _ -> Alcotest.fail "an id-less job gets a fresh id"

(* ------------------------------------------------------------------ *)
(* Journal: the kill-and-restart matrix                                *)

(* Replay a crashed daemon's ledger: write the given state sequences,
   then recover as a restart would. *)
let journal_scenario name transitions =
  let dir = fresh_dir name in
  (match Journal.open_journal ~dir with
  | Error msg -> Alcotest.fail msg
  | Ok t ->
      List.iter
        (fun (id, state, fields) -> Journal.append t ~id ~state ~fields ())
        transitions;
      Journal.close t);
  match Journal.recover ~dir with
  | Error msg -> Alcotest.fail msg
  | Ok recs -> recs

let spec id = [ ("spec", Protocol.job_to_json (job ~id ())) ]

let test_journal_kill_matrix () =
  (* killed right after the ack: the job must survive as accepted *)
  (match journal_scenario "acked" [ ("a", "accepted", spec "a") ] with
  | [ r ] ->
      check_str "still accepted" "accepted" r.Journal.last_state;
      check_int "no attempts consumed" 0 r.Journal.attempts;
      check_str "spec recovered" "a" r.Journal.job.Protocol.id
  | recs -> Alcotest.failf "expected 1 recovered job, got %d"
              (List.length recs));
  (* killed mid-run: interrupted, one attempt burned *)
  (match
     journal_scenario "running"
       [ ("a", "accepted", spec "a");
         ("a", "running", [ ("attempt", J.Num 1.) ]) ]
   with
  | [ r ] ->
      check_str "caught running -> interrupted" "interrupted"
        r.Journal.last_state;
      check_int "one attempt consumed" 1 r.Journal.attempts
  | recs -> Alcotest.failf "expected 1 recovered job, got %d"
              (List.length recs));
  (* killed between attempts (in backoff): still incomplete *)
  (match
     journal_scenario "backoff"
       [ ("a", "accepted", spec "a");
         ("a", "running", [ ("attempt", J.Num 1.) ]);
         ("a", "backoff", []) ]
   with
  | [ r ] -> check_int "attempt count survives backoff" 1 r.Journal.attempts
  | recs -> Alcotest.failf "expected 1 recovered job, got %d"
              (List.length recs));
  (* completed, failed, shed and dead-lettered jobs never come back —
     the no-double-completion half of the property *)
  List.iter
    (fun terminal ->
      match
        journal_scenario ("terminal-" ^ terminal)
          [ ("a", "accepted", spec "a");
            ("a", "running", [ ("attempt", J.Num 1.) ]);
            ("a", terminal, []) ]
      with
      | [] -> ()
      | _ -> Alcotest.failf "%S jobs must not be recovered" terminal)
    [ "done"; "failed"; "shed"; "dead-letter" ];
  (* two interleaved jobs, one of each fate *)
  match
    journal_scenario "interleaved"
      [ ("a", "accepted", spec "a");
        ("b", "accepted", spec "b");
        ("a", "running", [ ("attempt", J.Num 1.) ]);
        ("b", "running", [ ("attempt", J.Num 1.) ]);
        ("b", "done", []) ]
  with
  | [ r ] -> check_str "only the unfinished job returns" "a"
               r.Journal.job.Protocol.id
  | recs ->
      Alcotest.failf "expected exactly the interrupted job, got %d"
        (List.length recs)

let test_journal_torn_tail () =
  let dir = fresh_dir "torn" in
  (match Journal.open_journal ~dir with
  | Error msg -> Alcotest.fail msg
  | Ok t ->
      Journal.append t ~id:"a" ~state:"accepted" ~fields:(spec "a") ();
      Journal.close t);
  (* simulate a crash mid-append: a torn, unterminated final line *)
  let oc =
    open_out_gen [ Open_append ] 0o644 (Journal.path ~dir)
  in
  output_string oc {|{"at":1.0,"id":"b","sta|};
  close_out oc;
  match Journal.recover ~dir with
  | Error msg -> Alcotest.fail msg
  | Ok [ r ] ->
      check_str "intact prefix survives a torn tail" "a"
        r.Journal.job.Protocol.id
  | Ok recs ->
      Alcotest.failf "expected 1 recovered job, got %d" (List.length recs)

let test_journal_compaction () =
  let dir = fresh_dir "compact" in
  match Journal.open_journal ~dir with
  | Error msg -> Alcotest.fail msg
  | Ok t ->
      Journal.append t ~id:"keep" ~state:"accepted" ~fields:(spec "keep") ();
      Journal.append t ~id:"drop" ~state:"accepted" ~fields:(spec "drop") ();
      Journal.append t ~id:"drop" ~state:"done" ();
      (match Journal.compact t ~keep:(fun id -> id = "keep") with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg);
      (* the compacted ledger must still append and recover *)
      Journal.append t ~id:"keep" ~state:"running"
        ~fields:[ ("attempt", J.Num 1.) ] ();
      Journal.close t;
      (match Journal.recover ~dir with
      | Ok [ r ] ->
          check_str "kept job survives compaction" "keep"
            r.Journal.job.Protocol.id;
          check_str "with its post-compaction state" "interrupted"
            r.Journal.last_state
      | Ok recs ->
          Alcotest.failf "expected 1 recovered job, got %d"
            (List.length recs)
      | Error msg -> Alcotest.fail msg)

(* ------------------------------------------------------------------ *)
(* Budget.reseat: retries slice from the original deadline             *)

let test_reseat_keeps_original_deadline () =
  let b1 = Budget.create ~deadline:0.05 ~max_bdd_nodes:7 () in
  let da =
    match Budget.deadline_at b1 with
    | Some t -> t
    | None -> Alcotest.fail "budget has a deadline"
  in
  Unix.sleepf 0.08;
  (* the retry runs under the job's one original deadline — already in
     the past here, so the reseated budget must refuse immediately
     instead of granting a fresh window *)
  let b2 = Budget.reseat ~deadline:da b1 in
  checkb "reseat preserves the absolute deadline" true
    (Budget.deadline_at b2 = Some da);
  checkf 0.0 "no time remains" 0.
    (Option.value (Budget.remaining_time b2) ~default:(-1.));
  (match Budget.check ~stage:"retry" b2 with
  | Error e -> checkb "expired retry reports exhaustion" true
      (Error.is_budget e)
  | Ok () -> Alcotest.fail "a reseated budget past its deadline must fail");
  checkb "bdd ceiling carries over" true
    (Budget.bdd_node_limit b2 = Some 7)

let test_reseat_carries_cancel_hook () =
  let flag = ref false in
  let b = Budget.create ~cancelled:(fun () -> !flag) ~deadline:10. () in
  let r =
    Budget.reseat
      ~deadline:(Option.get (Budget.deadline_at b))
      b
  in
  checkb "not cancelled yet" false (Budget.is_cancelled r);
  flag := true;
  checkb "inherited hook fires" true (Budget.is_cancelled r);
  match Budget.check ~stage:"cancelled" r with
  | Error (Error.Cancelled _) -> ()
  | _ -> Alcotest.fail "cancellation reports before the deadline check"

(* ------------------------------------------------------------------ *)
(* Engine: submitting after drain                                      *)

let test_engine_rejects_after_drain () =
  let dir = fresh_dir "engine-drain" in
  let events = ref [] in
  let lock = Mutex.create () in
  let emit ev =
    Mutex.lock lock;
    events := ev :: !events;
    Mutex.unlock lock
  in
  let config = { Engine.default_config with pool_jobs = 1 } in
  match Engine.create ~config ~dir ~emit () with
  | Error msg -> Alcotest.fail msg
  | Ok engine ->
      Engine.drain engine;
      checkb "drain flag sticks" true (Engine.draining engine);
      Engine.submit engine (job ~id:"late" ());
      Engine.shutdown engine;
      let rejected =
        List.exists
          (fun ev ->
            match (J.mem "ev" ev, J.mem "reason" ev) with
            | Some (J.Str "rejected"), Some (J.Str "draining") -> true
            | _ -> false)
          !events
      in
      checkb "post-drain submission is rejected as draining" true rejected

(* ------------------------------------------------------------------ *)
(* Registry: crash-safe record, skip-and-warn listing                  *)

let test_registry_atomic_record () =
  let root = fresh_dir "registry" in
  match
    Reg.record ~root ~command:"test" ~argv:[ "x" ] ~exit_code:0
      ~started:(Unix.gettimeofday ()) ~wall_s:0.25
      ~series:[ ("cost", 42.) ] ()
  with
  | Error msg -> Alcotest.fail msg
  | Ok meta ->
      let run_dir = Reg.dir ~root ~id:meta.Reg.id in
      checkb "meta.json committed" true
        (Sys.file_exists (Filename.concat run_dir "meta.json"));
      checkb "bench.json committed" true
        (Sys.file_exists (Filename.concat run_dir "bench.json"));
      Array.iter
        (fun f ->
          checkb "no tmp litter after an atomic write" false
            (Filename.check_suffix f ".tmp"))
        (Sys.readdir run_dir)

let test_registry_skips_and_warns () =
  let root = fresh_dir "registry-warn" in
  (match
     Reg.record ~root ~command:"good" ~argv:[] ~exit_code:0
       ~started:(Unix.gettimeofday ()) ~wall_s:0.1 ()
   with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg);
  (* a run killed before the meta.json commit point: dir + bench only *)
  let torn = Filename.concat root "deadbeefcafe" in
  Unix.mkdir torn 0o755;
  let oc = open_out (Filename.concat torn "bench.json") in
  output_string oc "{}\n";
  close_out oc;
  (* and one with a half-written (corrupt) meta *)
  let corrupt = Filename.concat root "corruptedrun" in
  Unix.mkdir corrupt 0o755;
  let oc = open_out (Filename.concat corrupt "meta.json") in
  output_string oc {|{"format":"archex-run","id":"corr|};
  close_out oc;
  let warnings = ref [] in
  match Reg.list_runs ~root ~warn:(fun m -> warnings := m :: !warnings) ()
  with
  | Error msg -> Alcotest.fail msg
  | Ok metas ->
      check_int "only the complete run lists" 1 (List.length metas);
      check_int "each incomplete dir warns once" 2 (List.length !warnings)

(* ------------------------------------------------------------------ *)
(* Differential: the daemon answers bit-identically to a direct run    *)

let events_of_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> (
        match J.of_string line with
        | Ok j -> go (j :: acc)
        | Error _ -> go acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let find_done id events =
  List.find_opt
    (fun ev ->
      match (J.mem "ev" ev, J.mem "id" ev) with
      | Some (J.Str "done"), Some (J.Str i) -> i = id
      | _ -> false)
    events

let test_serve_matches_direct_run () =
  let r_star = 1e-3 in
  (* direct, in-process synthesis on the same instance *)
  let inst = Eps.Eps_template.base () in
  let direct =
    match
      Archex.Ilp_mr.run ~budget:Budget.unlimited ~jobs:1
        inst.Eps.Eps_template.template ~r_star
    with
    | Archex.Synthesis.Synthesized (arch, _, _) -> arch
    | _ -> Alcotest.fail "direct run must synthesize"
  in
  (* the same job through the full daemon loop (pipe transport) *)
  Server.reset_drain ();
  let dir = fresh_dir "differential" in
  let rd, wr = Unix.pipe () in
  let oc_req = Unix.out_channel_of_descr wr in
  output_string oc_req
    (Printf.sprintf "{\"op\":\"mr\",\"id\":\"diff\",\"r_star\":%g}\n" r_star);
  output_string oc_req "{\"op\":\"shutdown\"}\n";
  close_out oc_req;
  let out_path = Filename.concat dir "events.ndjson" in
  let oc = open_out out_path in
  let code =
    Server.serve_pipe ~config:{ Engine.default_config with pool_jobs = 1 }
      ~dir
      (Unix.in_channel_of_descr rd)
      oc
  in
  close_out oc;
  check_int "clean shutdown" 0 code;
  let events = events_of_lines out_path in
  match find_done "diff" events with
  | None -> Alcotest.fail "daemon never finished the job"
  | Some ev ->
      let num name =
        match J.mem name ev with Some (J.Num x) -> x | _ -> nan
      in
      let str name =
        match J.mem name ev with Some (J.Str s) -> s | _ -> ""
      in
      check_str "status" "ok" (str "status");
      check_str "an unconstrained job answers exactly" "exact"
        (str "verdict");
      checkf 0.0 "identical cost" direct.Archex.Synthesis.cost (num "cost");
      checkf 0.0 "identical reliability" direct.Archex.Synthesis.reliability
        (num "reliability")

(* The pressure ladder end to end: an injected overload degrades the
   admission, which caps the BDD oracle, which forces the verdict off
   the exact rung — and the response says so. *)
let test_serve_degraded_verdict () =
  Server.reset_drain ();
  let dir = fresh_dir "degraded" in
  let rd, wr = Unix.pipe () in
  let oc_req = Unix.out_channel_of_descr wr in
  output_string oc_req
    "{\"op\":\"analyze\",\"id\":\"deg\",\"generators\":6}\n";
  output_string oc_req "{\"op\":\"shutdown\"}\n";
  close_out oc_req;
  let out_path = Filename.concat dir "events.ndjson" in
  let oc = open_out out_path in
  let config =
    { Engine.default_config with pool_jobs = 1; degraded_bdd_limit = 4 }
  in
  let plan = Faults.plan [ (Faults.Queue_overload, Faults.At 1) ] in
  let code =
    Faults.with_plan plan (fun () ->
        Server.serve_pipe ~config ~dir (Unix.in_channel_of_descr rd) oc)
  in
  close_out oc;
  check_int "clean shutdown" 0 code;
  let events = events_of_lines out_path in
  match find_done "deg" events with
  | None -> Alcotest.fail "daemon never finished the job"
  | Some ev -> (
      (match J.mem "degraded" ev with
      | Some (J.Bool true) -> ()
      | _ -> Alcotest.fail "response must carry the degraded flag");
      match J.mem "verdict" ev with
      | Some (J.Str ("bounded" | "sampled")) -> ()
      | Some (J.Str v) ->
          Alcotest.failf "shed job must answer off the exact rung, got %S" v
      | _ -> Alcotest.fail "done event carries a verdict")

let () =
  Alcotest.run "serve"
    [ ( "backoff",
        [ Alcotest.test_case "deterministic per seed" `Quick
            test_backoff_deterministic;
          Alcotest.test_case "bounded by base and cap" `Quick
            test_backoff_bounds;
          Alcotest.test_case "reset replays" `Quick test_backoff_reset;
          Alcotest.test_case "rejects bad parameters" `Quick
            test_backoff_validation ] );
      ( "admission",
        [ Alcotest.test_case "accepts when idle" `Quick
            test_admission_accept;
          Alcotest.test_case "rejects too-large" `Quick
            test_admission_too_large;
          Alcotest.test_case "rejects queue-full" `Quick
            test_admission_queue_full;
          Alcotest.test_case "sheds above the watermark" `Quick
            test_admission_shed_watermark;
          Alcotest.test_case "sheds tight deadlines" `Quick
            test_admission_tight_deadline;
          Alcotest.test_case "injected overload sheds" `Quick
            test_admission_injected_overload ] );
      ( "protocol",
        [ Alcotest.test_case "job json round-trip" `Quick
            test_protocol_roundtrip;
          Alcotest.test_case "typed parse errors" `Quick
            test_protocol_parse_errors;
          Alcotest.test_case "legacy backend field ignored" `Quick
            test_protocol_legacy_backend ] );
      ( "journal",
        [ Alcotest.test_case "kill-and-restart matrix" `Quick
            test_journal_kill_matrix;
          Alcotest.test_case "tolerates a torn tail" `Quick
            test_journal_torn_tail;
          Alcotest.test_case "compaction keeps incomplete jobs" `Quick
            test_journal_compaction ] );
      ( "budget",
        [ Alcotest.test_case "reseat keeps the original deadline" `Quick
            test_reseat_keeps_original_deadline;
          Alcotest.test_case "reseat carries the cancel hook" `Quick
            test_reseat_carries_cancel_hook ] );
      ( "engine",
        [ Alcotest.test_case "rejects after drain" `Quick
            test_engine_rejects_after_drain ] );
      ( "registry",
        [ Alcotest.test_case "record commits atomically" `Quick
            test_registry_atomic_record;
          Alcotest.test_case "listing skips and warns" `Quick
            test_registry_skips_and_warns ] );
      ( "differential",
        [ Alcotest.test_case "serve matches a direct run" `Quick
            test_serve_matches_direct_run;
          Alcotest.test_case "degraded admission degrades the verdict"
            `Quick test_serve_degraded_verdict ] ) ]
