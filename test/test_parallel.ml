(* Tests for the parallel execution layer: the domain pool and
   cancellation tokens; determinism of sharded Monte-Carlo and parallel
   reliability analysis across job counts; and regression tests for the
   BDD cache accounting and checkpoint durability fixes. *)

module Pool = Archex_parallel.Pool
module Cancel = Archex_parallel.Cancel
module Digraph = Netgraph.Digraph
module Bdd = Reliability.Bdd
module Fail_model = Reliability.Fail_model
module Monte_carlo = Reliability.Monte_carlo
module Library = Archlib.Library
module Template = Archlib.Template

let checkb = Alcotest.(check bool)
let checkf eps = Alcotest.(check (float eps))
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)

let test_pool_map_order () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs @@ fun p ->
      let items = List.init 50 Fun.id in
      let out = Pool.map p (fun x -> x * x) items in
      checkb
        (Printf.sprintf "jobs=%d preserves order" jobs)
        true
        (out = List.map (fun x -> x * x) items))
    [ 1; 2; 4 ]

let test_pool_run_heterogeneous () =
  Pool.with_pool ~jobs:3 @@ fun p ->
  let out =
    Pool.run p [ (fun () -> "a"); (fun () -> "b"); (fun () -> "c") ]
  in
  checkb "results in submission order" true (out = [ "a"; "b"; "c" ])

let test_pool_empty_and_single () =
  Pool.with_pool ~jobs:2 @@ fun p ->
  checkb "empty run" true (Pool.run p [] = []);
  checkb "single task" true (Pool.run p [ (fun () -> 7) ] = [ 7 ])

exception Boom of int

let test_pool_exception_propagates () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs @@ fun p ->
      let completed = Atomic.make 0 in
      match
        Pool.map p
          (fun x ->
            if x = 3 then raise (Boom x)
            else begin
              Atomic.incr completed;
              x
            end)
          (List.init 8 Fun.id)
      with
      | _ -> Alcotest.fail "expected Boom to propagate"
      | exception Boom 3 ->
          (* every other task still ran to completion before the raise
             surfaced — the pool never abandons queued work *)
          check_int
            (Printf.sprintf "jobs=%d siblings completed" jobs)
            7 (Atomic.get completed)
      | exception e -> raise e)
    [ 1; 4 ]

let test_pool_reuse_across_runs () =
  Pool.with_pool ~jobs:3 @@ fun p ->
  for round = 1 to 5 do
    let out = Pool.map p (fun x -> x + round) (List.init 10 Fun.id) in
    checkb "round result" true (out = List.init 10 (fun x -> x + round))
  done

let test_pool_shutdown_idempotent () =
  let p = Pool.create ~jobs:3 () in
  check_int "jobs" 3 (Pool.jobs p);
  Pool.shutdown p;
  Pool.shutdown p

let test_pool_rejects_bad_jobs () =
  checkb "jobs=0 rejected" true
    (match Pool.create ~jobs:0 () with
    | exception Invalid_argument _ -> true
    | _ -> false);
  checkb "default_jobs positive" true (Pool.default_jobs () >= 1)

let test_pool_parallel_sum () =
  (* shared mutation through an Atomic: the documented discipline *)
  Pool.with_pool ~jobs:4 @@ fun p ->
  let total = Atomic.make 0 in
  let _ =
    Pool.map p
      (fun _ ->
        for _ = 1 to 1000 do
          Atomic.incr total
        done)
      (List.init 8 Fun.id)
  in
  check_int "atomic sum" 8000 (Atomic.get total)

(* ------------------------------------------------------------------ *)
(* Cancel                                                              *)

let test_cancel_basic () =
  let t = Cancel.create () in
  checkb "fresh token uncancelled" false (Cancel.is_cancelled t);
  Cancel.cancel t;
  checkb "cancelled" true (Cancel.is_cancelled t);
  Cancel.cancel t;
  checkb "idempotent" true (Cancel.is_cancelled t)

let test_cancel_parent_chain () =
  let root = Cancel.create () in
  let child = Cancel.create ~parent:root () in
  let grandchild = Cancel.create ~parent:child () in
  checkb "grandchild starts clear" false (Cancel.is_cancelled grandchild);
  Cancel.cancel root;
  checkb "cancel sweeps descendants" true (Cancel.is_cancelled grandchild);
  let sibling = Cancel.create () in
  checkb "unrelated token untouched" false (Cancel.is_cancelled sibling)

let test_cancel_child_does_not_cancel_parent () =
  let root = Cancel.create () in
  let child = Cancel.create ~parent:root () in
  Cancel.cancel child;
  checkb "child cancelled" true (Cancel.is_cancelled child);
  checkb "parent unaffected" false (Cancel.is_cancelled root)

let test_cancel_guard () =
  let t = Cancel.create () in
  let stop = Cancel.guard t in
  checkb "guard false" false (stop ());
  Cancel.cancel t;
  checkb "guard true" true (stop ())

(* ------------------------------------------------------------------ *)
(* Thread-safe plumbing: metrics and budgets under concurrent charge   *)

let test_metrics_concurrent_add () =
  let m = Archex_obs.Metrics.create () in
  let c = Archex_obs.Metrics.counter m "par.test" in
  Pool.with_pool ~jobs:4 @@ fun p ->
  let _ =
    Pool.map p
      (fun _ ->
        for _ = 1 to 1000 do
          Archex_obs.Metrics.add c 1.
        done)
      (List.init 8 Fun.id)
  in
  checkf 0. "no lost increments" 8000. (Archex_obs.Metrics.counter_value c)

let test_budget_concurrent_charge () =
  let b = Archex_resilience.Budget.create ~max_nodes:1_000_000 () in
  Pool.with_pool ~jobs:4 @@ fun p ->
  let _ =
    Pool.map p
      (fun _ ->
        for _ = 1 to 500 do
          Archex_resilience.Budget.charge_nodes b 3
        done)
      (List.init 8 Fun.id)
  in
  checkb "no lost node charges" true
    (Archex_resilience.Budget.remaining_nodes b
    = Some (1_000_000 - (8 * 500 * 3)))

(* ------------------------------------------------------------------ *)
(* Monte-Carlo determinism across job counts                           *)

(* 2 sources, 2 relays, 1 sink diamond with imperfect nodes. *)
let mc_net () =
  let g =
    Digraph.of_edges 5 [ (0, 2); (0, 3); (1, 2); (1, 3); (2, 4); (3, 4) ]
  in
  Fail_model.make g ~sources:[ 0; 1 ]
    ~node_fail:[| 0.2; 0.3; 0.25; 0.15; 0.1 |]

let test_mc_identical_across_jobs () =
  let net = mc_net () in
  (* 10_000 spans three 4096-trial shards, the last one partial *)
  let reference =
    Monte_carlo.estimate_sink_failure ~seed:42 ~jobs:1 ~trials:10_000 net
      ~sink:4
  in
  List.iter
    (fun jobs ->
      let est =
        Monte_carlo.estimate_sink_failure ~seed:42 ~jobs ~trials:10_000 net
          ~sink:4
      in
      check_int
        (Printf.sprintf "failures identical at jobs=%d" jobs)
        reference.Monte_carlo.failures est.Monte_carlo.failures;
      checkf 0.
        (Printf.sprintf "mean bit-identical at jobs=%d" jobs)
        reference.Monte_carlo.mean est.Monte_carlo.mean)
    [ 2; 3; 4 ]

let test_mc_identical_with_pool_reuse () =
  let net = mc_net () in
  let serial =
    Monte_carlo.estimate_sink_failure ~seed:9 ~trials:9000 net ~sink:4
  in
  Pool.with_pool ~jobs:3 @@ fun p ->
  let pooled =
    Monte_carlo.estimate_sink_failure ~seed:9 ~pool:p ~trials:9000 net
      ~sink:4
  in
  check_int "pool reuse identical" serial.Monte_carlo.failures
    pooled.Monte_carlo.failures

let test_mc_seed_isolation () =
  let net = mc_net () in
  let a =
    Monte_carlo.estimate_sink_failure ~seed:1 ~trials:8192 net ~sink:4
  in
  let b =
    Monte_carlo.estimate_sink_failure ~seed:2 ~trials:8192 net ~sink:4
  in
  let a' =
    Monte_carlo.estimate_sink_failure ~seed:1 ~jobs:4 ~trials:8192 net
      ~sink:4
  in
  check_int "same seed reproduces" a.Monte_carlo.failures
    a'.Monte_carlo.failures;
  (* different seeds are independent replicates; equality would be an
     astronomical coincidence for 8192 trials at these probabilities *)
  checkb "different seed differs" true
    (a.Monte_carlo.failures <> b.Monte_carlo.failures)

let test_mc_small_trials () =
  let net = mc_net () in
  (* fewer trials than one shard: must still be deterministic *)
  let a =
    Monte_carlo.estimate_sink_failure ~seed:5 ~jobs:4 ~trials:100 net
      ~sink:4
  in
  let b =
    Monte_carlo.estimate_sink_failure ~seed:5 ~jobs:1 ~trials:100 net
      ~sink:4
  in
  check_int "sub-shard trials" a.Monte_carlo.failures
    b.Monte_carlo.failures;
  check_int "trial count honoured" 100 a.Monte_carlo.trials

(* ------------------------------------------------------------------ *)
(* Parallel reliability analysis parity                                *)

let two_sink_lib =
  Library.make ~switch_cost:1.
    [ { Library.type_name = "SRC"; cost = 5.; fail_prob = 0.1 };
      { type_name = "MID"; cost = 10.; fail_prob = 0.2 };
      { type_name = "SNK"; cost = 0.; fail_prob = 0.05 } ]

let two_sink_template () =
  let comp ty name = Library.instantiate two_sink_lib ~type_id:ty ~name in
  let t =
    Template.create
      [| comp 0 "S1"; comp 0 "S2"; comp 1 "M1"; comp 1 "M2"; comp 2 "T1";
         comp 2 "T2" |]
  in
  List.iter
    (fun (u, v) -> Template.add_candidate_edge t u v)
    [ (0, 2); (0, 3); (1, 2); (1, 3); (2, 4); (2, 5); (3, 4); (3, 5) ];
  Template.set_sources t [ 0; 1 ];
  Template.set_sinks t [ 4; 5 ];
  Template.set_type_chain t [ 0; 1; 2 ];
  t

let test_rel_analysis_jobs_parity () =
  let t = two_sink_template () in
  let config =
    Template.config_of_edges t
      [ (0, 2); (1, 3); (2, 4); (3, 5); (2, 5); (3, 4) ]
  in
  let serial = Archex.Rel_analysis.analyze ~jobs:1 t config in
  List.iter
    (fun jobs ->
      let par = Archex.Rel_analysis.analyze ~jobs t config in
      checkb
        (Printf.sprintf "per_sink identical at jobs=%d" jobs)
        true
        (par.Archex.Rel_analysis.per_sink
        = serial.Archex.Rel_analysis.per_sink);
      checkf 0.
        (Printf.sprintf "worst identical at jobs=%d" jobs)
        serial.Archex.Rel_analysis.worst par.Archex.Rel_analysis.worst;
      check_int
        (Printf.sprintf "degraded identical at jobs=%d" jobs)
        serial.Archex.Rel_analysis.degraded
        par.Archex.Rel_analysis.degraded)
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Regression: BDD ite-cache accounting                                *)

let test_bdd_cache_counted () =
  let man = Bdd.manager ~nvars:8 () in
  let xs = List.init 8 (Bdd.var man) in
  let _ = Bdd.conj_list man xs in
  let _ = Bdd.disj_list man xs in
  checkb "cache populated" true (Bdd.cache_size man > 0);
  check_int "accounted = nodes + cache"
    (Bdd.node_count man + Bdd.cache_size man)
    (Bdd.accounted_size man);
  Bdd.clear_cache man;
  check_int "cache cleared" 0 (Bdd.cache_size man);
  check_int "accounted drops to nodes" (Bdd.node_count man)
    (Bdd.accounted_size man)

let test_bdd_cache_growth_bounded () =
  (* a ceiling the cache alone can breach: peak accounted memory must
     never exceed max_nodes, and the breach must surface as Node_limit *)
  let limit = 40 in
  let man = Bdd.manager ~nvars:12 ~max_nodes:limit () in
  checkb "blowup raises Node_limit" true
    (match
       let xs = List.init 12 (Bdd.var man) in
       let f = Bdd.conj_list man xs in
       let g = Bdd.disj_list man xs in
       Bdd.ite man f g (Bdd.neg man f)
     with
    | exception Bdd.Node_limit { nodes; limit = l } ->
        check_int "limit echoed" limit l;
        checkb "reported at ceiling" true (nodes >= limit);
        true
    | _ -> false);
  checkb "peak accounted within ceiling" true
    (Bdd.accounted_size man <= limit);
  (* the manager survives: clearing the cache frees allowance *)
  Bdd.clear_cache man;
  checkb "usable after clear" true
    (Bdd.accounted_size man < limit)

let test_bdd_clear_cache_correctness () =
  (* the cache only memoizes: results after a clear are the same nodes *)
  let man = Bdd.manager ~nvars:4 () in
  let f =
    Bdd.disj man
      (Bdd.conj man (Bdd.var man 0) (Bdd.var man 1))
      (Bdd.conj man (Bdd.var man 2) (Bdd.var man 3))
  in
  Bdd.clear_cache man;
  let g =
    Bdd.disj man
      (Bdd.conj man (Bdd.var man 0) (Bdd.var man 1))
      (Bdd.conj man (Bdd.var man 2) (Bdd.var man 3))
  in
  checkb "hash-consing survives cache clear" true (Bdd.equal f g)

(* ------------------------------------------------------------------ *)
(* Regression: checkpoint durability and typed load                    *)

let sample_checkpoint () =
  { Archex.Checkpoint.r_star = 0.01;
    strategy = Some "estimated";
    iterations =
      [ { Archex.Checkpoint.index = 1;
          solution = [| 1.; 0.; 1. |];
          edges = [ (0, 2) ];
          cost = 29.;
          reliability = 0.05;
          per_sink = [ (5, 0.05) ];
          k_estimate = Some 2;
          new_constraints = 3 } ] }

let with_temp_file f =
  let path = Filename.temp_file "archex_ckpt" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_checkpoint_roundtrip () =
  with_temp_file @@ fun path ->
  let ck = sample_checkpoint () in
  (match Archex.Checkpoint.save path ck with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("save failed: " ^ msg));
  match Archex.Checkpoint.load_checked path with
  | Ok loaded ->
      checkf 0. "r_star" ck.Archex.Checkpoint.r_star
        loaded.Archex.Checkpoint.r_star;
      check_int "iterations" 1
        (List.length loaded.Archex.Checkpoint.iterations)
  | Error _ -> Alcotest.fail "load_checked rejected a good checkpoint"

let test_checkpoint_truncated_is_typed () =
  with_temp_file @@ fun path ->
  (match Archex.Checkpoint.save path (sample_checkpoint ()) with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("save failed: " ^ msg));
  (* simulate the crash the fsync exists to prevent: a checkpoint file
     holding only a prefix of the bytes *)
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let half = really_input_string ic (n / 2) in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc half;
  close_out oc;
  match Archex.Checkpoint.load_checked path with
  | Error (Archex_resilience.Error.Invalid_input msgs) ->
      checkb "carries a message" true (msgs <> [])
  | Error _ -> Alcotest.fail "wrong error constructor"
  | Ok _ -> Alcotest.fail "truncated checkpoint accepted"

let test_checkpoint_missing_is_typed () =
  match Archex.Checkpoint.load_checked "/nonexistent/archex.ckpt" with
  | Error (Archex_resilience.Error.Invalid_input _) -> ()
  | Error _ -> Alcotest.fail "wrong error constructor"
  | Ok _ -> Alcotest.fail "missing file accepted"

(* ------------------------------------------------------------------ *)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "parallel"
    [ ( "pool",
        [ quick "map preserves order" test_pool_map_order;
          quick "heterogeneous run" test_pool_run_heterogeneous;
          quick "empty and single" test_pool_empty_and_single;
          quick "exception propagates" test_pool_exception_propagates;
          quick "reuse across runs" test_pool_reuse_across_runs;
          quick "shutdown idempotent" test_pool_shutdown_idempotent;
          quick "rejects jobs < 1" test_pool_rejects_bad_jobs;
          quick "atomic shared sum" test_pool_parallel_sum ] );
      ( "cancel",
        [ quick "basic flag" test_cancel_basic;
          quick "parent sweeps children" test_cancel_parent_chain;
          quick "child isolated from parent"
            test_cancel_child_does_not_cancel_parent;
          quick "guard" test_cancel_guard ] );
      ( "plumbing",
        [ quick "metrics atomic adds" test_metrics_concurrent_add;
          quick "budget atomic charges" test_budget_concurrent_charge ] );
      ( "monte_carlo",
        [ quick "identical across jobs" test_mc_identical_across_jobs;
          quick "identical with pool reuse"
            test_mc_identical_with_pool_reuse;
          quick "seed isolation" test_mc_seed_isolation;
          quick "sub-shard trial counts" test_mc_small_trials ] );
      ( "rel_analysis",
        [ quick "jobs parity" test_rel_analysis_jobs_parity ] );
      ( "regression_bdd",
        [ quick "cache entries accounted" test_bdd_cache_counted;
          quick "cache growth bounded" test_bdd_cache_growth_bounded;
          quick "clear preserves semantics"
            test_bdd_clear_cache_correctness ] );
      ( "regression_checkpoint",
        [ quick "durable roundtrip" test_checkpoint_roundtrip;
          quick "truncated rejected typed"
            test_checkpoint_truncated_is_typed;
          quick "missing rejected typed" test_checkpoint_missing_is_typed
        ] ) ]
