(* Runtime_events → observability bridge.

   OCaml 5's runtime emits GC phase begin/end pairs (minor collections,
   major slices, stop-the-world barriers) into a per-domain ring buffer.
   This module starts a self-monitoring cursor over that ring and, on
   every [poll], converts what accumulated since the last poll into

     - per-domain ["gc.*"] span records injected into the NDJSON trace
       under a ["gc"] lane (one lane per ring domain, internally ordered
       and nested, so [Trace.validate] accepts the merged stream and
       [trace-export --chrome] renders one GC track per domain);
     - a [gc.pause_seconds] histogram plus per-domain
       [gc.pause_total_seconds{domain="i"}] / [gc.pauses{domain="i"}]
       counters in the metrics registry.

   A "pause" is a top-level runtime phase — one that begins while no
   other runtime phase is open on that domain (a minor collection, a
   major slice, an explicit Gc.full_major, an STW barrier).  Nested
   sub-phases (mark/sweep inside a slice) are tracked for nesting but
   neither traced nor counted unless [detail] asks for them, so pause
   time is never double-counted.

   Timestamps: the ring carries monotonic-clock nanoseconds while the
   tracer stamps [Clock.now] seconds.  At [start] the bridge calibrates
   a constant offset by forcing one minor collection and pairing the
   freshest ring timestamp with [Clock.now] — the residual error is the
   calibration poll's latency (microseconds), far below span widths.

   Domain identity: the ring index is the runtime's domain *slot*, which
   coincides with [Domain.self] as long as no domain has terminated
   (slots are reused, unique ids are not).  The bridge counts domain
   churn ([gc.domain_churn]) so downstream attribution can report how
   trustworthy cross-domain matching still is; see DESIGN.md §10. *)

module RE = Runtime_events

type frame = {
  phase : RE.runtime_phase;
  ns : int64;            (* ring timestamp at begin *)
  span_id : int;         (* trace span id, -1 when the begin was not traced *)
}

type t = {
  cursor : RE.cursor;
  trace : Trace.t;
  metrics : Metrics.t;
  detail : bool;
  pause_hist : Metrics.histogram;
  churn : Metrics.counter;
  lost : Metrics.counter;
  lock : Mutex.t;
  (* everything below is guarded by [lock] (poll is called from both the
     sampler domain and the stopping domain) *)
  stacks : (int, frame list ref) Hashtbl.t;     (* ring slot -> open phases *)
  dom_counters : (int, Metrics.counter * Metrics.counter) Hashtbl.t;
  mutable offset : float;                       (* Clock seconds - ring seconds *)
  mutable last_ns : int64;
  mutable pause_count : int;
  mutable pause_seconds : float;
  mutable next_span_id : int;
  mutable callbacks : RE.Callbacks.t option;
  mutable stopped : bool;
}

let ring_seconds ns = Int64.to_float ns /. 1e9

let clock_of t ns = t.offset +. ring_seconds ns

let stack_of t ring =
  match Hashtbl.find_opt t.stacks ring with
  | Some s -> s
  | None ->
      let s = ref [] in
      Hashtbl.add t.stacks ring s;
      s

let counters_of t ring =
  match Hashtbl.find_opt t.dom_counters ring with
  | Some pair -> pair
  | None ->
      let label name =
        Printf.sprintf "%s{domain=\"%d\"}" name ring
      in
      let pair =
        ( Metrics.counter t.metrics (label "gc.pause_total_seconds"),
          Metrics.counter t.metrics (label "gc.pauses") )
      in
      Hashtbl.add t.dom_counters ring pair;
      pair

(* ------------------------------------------------------------------ *)
(* Trace emission: one "gc" lane per ring domain.  Lane depth is the
   GC-phase nesting itself (0 for pauses), so the lane validates on its
   own; the user-span depth of the domain at emission time rides along
   as an attribute for readers. *)

let span_name phase = "gc." ^ RE.runtime_phase_name phase

let emit_begin t ~ring ~ns ~depth phase span_id =
  Trace.emit_raw t.trace
    [ ("ts", Json.Num (clock_of t ns));
      ("ev", Json.Str "begin");
      ("name", Json.Str (span_name phase));
      ("id", Json.Num (float_of_int span_id));
      ("dom", Json.Num (float_of_int ring));
      ("lane", Json.Str "gc");
      ("depth", Json.Num (float_of_int depth));
      ( "attrs",
        Json.Obj
          [ ( "enclosing_depth",
              Json.Num
                (float_of_int (Trace.current_depth t.trace ~dom:ring)) ) ] )
    ]

let emit_end t ~ring ~ns ~depth ~dur phase span_id =
  Trace.emit_raw t.trace
    [ ("ts", Json.Num (clock_of t ns));
      ("ev", Json.Str "end");
      ("name", Json.Str (span_name phase));
      ("id", Json.Num (float_of_int span_id));
      ("dom", Json.Num (float_of_int ring));
      ("lane", Json.Str "gc");
      ("depth", Json.Num (float_of_int depth));
      ("dur", Json.Num dur) ]

(* ------------------------------------------------------------------ *)
(* Ring callbacks (invoked inside read_poll, which runs under t.lock)   *)

let on_begin t ring ts phase =
  let ns = RE.Timestamp.to_int64 ts in
  t.last_ns <- ns;
  let stack = stack_of t ring in
  let depth = List.length !stack in
  let traced = depth = 0 || t.detail in
  let span_id =
    if traced then begin
      let id = t.next_span_id in
      t.next_span_id <- id + 1;
      emit_begin t ~ring ~ns ~depth phase id;
      id
    end
    else -1
  in
  stack := { phase; ns; span_id } :: !stack

let record_pause t ring dur =
  Metrics.observe t.pause_hist dur;
  let total, count = counters_of t ring in
  Metrics.add total dur;
  Metrics.incr count;
  t.pause_count <- t.pause_count + 1;
  t.pause_seconds <- t.pause_seconds +. dur

(* Close the topmost frame as ending at [ns]; used both for a matching
   runtime_end and for frames the runtime abandoned (a domain that
   terminated mid-phase). *)
let close_top t ring ns stack =
  match !stack with
  | [] -> ()
  | frame :: rest ->
      stack := rest;
      let depth = List.length rest in
      let dur =
        Float.max 0. (ring_seconds ns -. ring_seconds frame.ns)
      in
      if frame.span_id >= 0 then
        emit_end t ~ring ~ns ~depth ~dur frame.phase frame.span_id;
      if depth = 0 then record_pause t ring dur

let on_end t ring ts phase =
  let ns = RE.Timestamp.to_int64 ts in
  t.last_ns <- ns;
  let stack = stack_of t ring in
  (* The ring is well-nested per domain; should an end arrive for a
     phase deeper in our stack (events lost to overwrite), close the
     frames above it too so the traced lane never leaks an open span. *)
  if List.exists (fun f -> f.phase = phase) !stack then begin
    let rec unwind () =
      match !stack with
      | [] -> ()
      | frame :: _ ->
          close_top t ring ns stack;
          if frame.phase <> phase then unwind ()
    in
    unwind ()
  end

let on_lifecycle t ring ts lc _arg =
  t.last_ns <- RE.Timestamp.to_int64 ts;
  match lc with
  | RE.EV_DOMAIN_TERMINATE ->
      (* the slot may be handed to a different Domain.self next; flag it *)
      Metrics.incr t.churn;
      let stack = stack_of t ring in
      let ns = RE.Timestamp.to_int64 ts in
      while !stack <> [] do
        close_top t ring ns stack
      done
  | _ -> ()

let on_lost t _ring n =
  Metrics.add t.lost (float_of_int n)

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let poll t =
  locked t (fun () ->
      match t.callbacks with
      | None -> 0
      | Some cb -> if t.stopped then 0 else RE.read_poll t.cursor cb None)

(* Pair the freshest ring timestamp with Clock.now: force a minor
   collection (guaranteed to leave EV_* records from this domain), read
   the clock, then scan the ring for the largest timestamp. *)
let calibrate cursor =
  let newest = ref 0L in
  let note ts =
    let ns = RE.Timestamp.to_int64 ts in
    if ns > !newest then newest := ns
  in
  let cb =
    RE.Callbacks.create
      ~runtime_begin:(fun _ ts _ -> note ts)
      ~runtime_end:(fun _ ts _ -> note ts)
      ~runtime_counter:(fun _ ts _ _ -> note ts)
      ~lifecycle:(fun _ ts _ _ -> note ts)
      ()
  in
  let rec attempt tries =
    Gc.minor ();
    let now = Clock.now () in
    ignore (RE.read_poll cursor cb None);
    if !newest > 0L then now -. ring_seconds !newest
    else if tries > 1 then attempt (tries - 1)
    else now (* nothing observable in the ring: treat ring 0 as "now" *)
  in
  attempt 3

let start ?(trace = Trace.null) ?(detail = false) metrics () =
  RE.start ();
  let cursor = RE.create_cursor None in
  let offset = calibrate cursor in
  let t =
    { cursor;
      trace;
      metrics;
      detail;
      pause_hist = Metrics.histogram metrics "gc.pause_seconds";
      churn = Metrics.counter metrics "gc.domain_churn";
      lost = Metrics.counter metrics "gc.lost_events";
      lock = Mutex.create ();
      stacks = Hashtbl.create 8;
      dom_counters = Hashtbl.create 8;
      offset;
      last_ns = 0L;
      pause_count = 0;
      pause_seconds = 0.;
      next_span_id = 0;
      callbacks = None;
      stopped = false }
  in
  t.callbacks <-
    Some
      (RE.Callbacks.create
         ~runtime_begin:(fun ring ts phase -> on_begin t ring ts phase)
         ~runtime_end:(fun ring ts phase -> on_end t ring ts phase)
         ~lifecycle:(fun ring ts lc arg -> on_lifecycle t ring ts lc arg)
         ~lost_events:(fun ring n -> on_lost t ring n)
         ());
  t

let stop t =
  locked t (fun () ->
      if not t.stopped then begin
        (match t.callbacks with
        | Some cb -> ignore (RE.read_poll t.cursor cb None)
        | None -> ());
        (* a GC in flight at stop: close its frames at the last ring
           timestamp seen so the trace lane ends with no span open *)
        Hashtbl.iter
          (fun ring stack ->
            while !stack <> [] do
              close_top t ring t.last_ns stack
            done)
          t.stacks;
        t.stopped <- true;
        RE.free_cursor t.cursor
      end)

let pause_count t = locked t (fun () -> t.pause_count)
let pause_seconds t = locked t (fun () -> t.pause_seconds)
