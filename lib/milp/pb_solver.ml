(* Conflict-driven pseudo-Boolean optimizer.

   Rows are normalized to  Σ a·lit ≥ b  with a > 0 over literals (a variable
   or its complement).  Propagation is slack-based: [poss] is the maximum
   achievable LHS under the current partial assignment; a literal whose
   coefficient exceeds [poss - b] is forced.

   Search is CDCL: every propagation records its reason row; conflicts are
   analyzed to a 1-UIP clause through the sound clausal abstraction of a PB
   row (the row implies "the forced literal, or one of the literals it had
   already falsified"), learned as a coefficient-1 row, and used to
   backjump.  Branch-and-bound comes from objective-bound rows added at
   each incumbent; the optimum is proved when a conflict reaches level 0.

   Layout: a literal is the int [2·var + pol] and holds when
   [value.(var) = pol] (pol 1: the variable, pol 0: its complement).  Rows
   are stored as parallel arrays indexed by row: an [int array] of literals
   and a [float array] of coefficients per row, and [bound], [tol], [poss],
   [sure] in flat float arrays, so the propagation loops neither allocate
   nor chase boxed tuples.

   The row kind selects the propagation rule.  Learned clauses (all
   coefficients 1, bound 1) are the bulk of the database and of the row
   visits, so they use two watched literals: slots 0 and 1 of the clause,
   visited only when one of them becomes false, and never on backtrack.
   Every other row (model rows and objective-bound rows) keeps the
   [poss] / [sure] counters, updated through per-literal occurrence arrays
   kept in insertion order and visited newest first; [Row_stats] binding
   and the bound-row infeasibility check read those counters. *)

type stats = {
  decisions : int;
  propagations : int;
  conflicts : int;
  restarts : int;
  learned : int;
  bound : float option;
}

let zero_stats =
  { decisions = 0;
    propagations = 0;
    conflicts = 0;
    restarts = 0;
    learned = 0;
    bound = None }

type outcome =
  | Optimal of { objective : float; solution : float array }
  | Infeasible
  | Limit_reached of { incumbent : (float * float array) option }

(* A normalized row  Σ coefs.(i)·lits.(i) ≥ bound, coefficients positive
   and descending; the unit in which rows enter the solver state. *)
type row = {
  lits : int array;
  coefs : float array;
  bound : float;
  tol : float;
}

let lit_of x pol = (2 * x) + pol

exception Trivially_infeasible

(* Normalize [expr cmp rhs] into zero, one or two ≥-rows with positive
   coefficients.  Tautologies are dropped; impossible rows raise. *)
let normalize_row expr cmp rhs =
  let build terms rhs =
    let fold (lits, bound) (x, a) =
      if a > 0. then ((x, a, 1) :: lits, bound)
      else ((x, -.a, 0) :: lits, bound +. -.a)
    in
    let lits, bound = List.fold_left fold ([], rhs) terms in
    let total = List.fold_left (fun acc (_, a, _) -> acc +. a) 0. lits in
    let tol = 1e-9 *. Float.max 1. (Float.max total (Float.abs bound)) in
    if bound <= tol then None
    else if total < bound -. tol then raise Trivially_infeasible
    else begin
      let sorted =
        List.sort (fun (_, a, _) (_, b, _) -> Float.compare b a) lits
        |> Array.of_list
      in
      Some
        { lits = Array.map (fun (x, _, pol) -> lit_of x pol) sorted;
          coefs = Array.map (fun (_, a, _) -> a) sorted;
          bound;
          tol }
    end
  in
  let terms = Lin_expr.terms expr in
  let negated = List.map (fun (x, a) -> (x, -.a)) terms in
  match cmp with
  | Model.Ge -> Option.to_list (build terms rhs)
  | Model.Le -> Option.to_list (build negated (-.rhs))
  | Model.Eq ->
      Option.to_list (build terms rhs)
      @ Option.to_list (build negated (-.rhs))

(* Reason codes stored per assigned variable. *)
let reason_decision = -1
let reason_bound = -2 (* propagated/conflicted by the objective bound *)

type state = {
  mutable ncons : int;
  (* rows, struct-of-arrays; capacity grows with learned rows *)
  mutable lits : int array array;
  mutable coefs : float array array;
  mutable bound : float array;
  mutable tol : float array;
  mutable poss : float array;        (* max achievable LHS *)
  mutable sure : float array;        (* LHS of the literals already true *)
  mutable learned : bool array;      (* learned clause, not a counter row *)
  mutable origin : int array;        (* model row, or -1 *)
  mutable n_learned : int;           (* learned rows currently in the DB *)
  mutable n_learned_total : int;     (* learned rows ever (monotone) *)
  row_stats : Row_stats.t option;    (* per-model-row activity, opt-in *)
  (* per literal: the counter rows containing it and its coefficient there *)
  occ : int array array;
  occ_coef : float array array;
  occ_n : int array;
  (* per literal: the learned clauses watching it *)
  watch : int array array;
  watch_n : int array;
  value : int array;                 (* -1 / 0 / 1 *)
  level : int array;
  reason : int array;                (* con index, or a reason code *)
  trail_pos : int array;
  trail : int array;
  mutable trail_size : int;
  trail_lim : int array;             (* trail size at each decision *)
  mutable dlevel : int;              (* current decision level *)
  obj : float array;
  obj_const : float;
  base_lb : float;
  mutable lb_extra : float;
  by_cost : int array;               (* vars with obj ≠ 0, |obj| desc *)
  obj_integral : bool;               (* all objective coefficients integral *)
  (* propagation queue: a FIFO ring of (literal to make true, reason);
     capacity a power of two, doubled when full *)
  mutable pend_lit : int array;
  mutable pend_reason : int array;
  mutable pend_head : int;
  mutable pend_size : int;
  heap : Var_heap.t;
  mutable var_inc : float;
  phase : int array;                 (* saved phase per var *)
  mutable best : (float * float array) option;
  mutable n_decisions : int;
  mutable n_propagations : int;
  mutable n_conflicts : int;
  mutable n_restarts : int;
  mutable restart_sched : int;       (* Luby index *)
  mutable conflicts_until_restart : int;
  seen : bool array;                 (* scratch for conflict analysis *)
  learnt : int array;                (* scratch: lower-level learned literals *)
  mutable rng : int;                 (* deterministic LCG for phase jitter *)
}

let cheap_value st x = if st.obj.(x) >= 0. then 0 else 1
let expensivep st x = (st.value.(x) = 1) = (st.obj.(x) > 0.) && st.obj.(x) <> 0.
let cost_lb st = st.base_lb +. st.lb_extra +. st.obj_const
let row_violated st ci = st.poss.(ci) < st.bound.(ci) -. st.tol.(ci)

let lit_false st l =
  let v = st.value.(l lsr 1) in
  v >= 0 && v <> l land 1

let obj_tol st =
  match st.best with
  | None -> 0.
  | Some (c, _) -> 1e-9 *. Float.max 1. (Float.abs c)

let bound_exceeded st =
  match st.best with
  | None -> false
  | Some (best, _) -> cost_lb st >= best -. obj_tol st

let push_pending st l reason =
  let cap = Array.length st.pend_lit in
  if st.pend_size = cap then begin
    let lits = Array.make (2 * cap) 0 and reasons = Array.make (2 * cap) 0 in
    for i = 0 to cap - 1 do
      let j = (st.pend_head + i) land (cap - 1) in
      lits.(i) <- st.pend_lit.(j);
      reasons.(i) <- st.pend_reason.(j)
    done;
    st.pend_lit <- lits;
    st.pend_reason <- reasons;
    st.pend_head <- 0
  end;
  let j = (st.pend_head + st.pend_size) land (Array.length st.pend_lit - 1) in
  st.pend_lit.(j) <- l;
  st.pend_reason.(j) <- reason;
  st.pend_size <- st.pend_size + 1

let clear_pending st =
  st.pend_head <- 0;
  st.pend_size <- 0

let add_occ st l ci a =
  let n = st.occ_n.(l) in
  if n = Array.length st.occ.(l) then begin
    let cap = max 4 (2 * n) in
    let rows = Array.make cap 0 and coefs = Array.make cap 0. in
    Array.blit st.occ.(l) 0 rows 0 n;
    Array.blit st.occ_coef.(l) 0 coefs 0 n;
    st.occ.(l) <- rows;
    st.occ_coef.(l) <- coefs
  end;
  st.occ.(l).(n) <- ci;
  st.occ_coef.(l).(n) <- a;
  st.occ_n.(l) <- n + 1

let add_watch st l ci =
  let n = st.watch_n.(l) in
  if n = Array.length st.watch.(l) then begin
    let ws = Array.make (max 4 (2 * n)) 0 in
    Array.blit st.watch.(l) 0 ws 0 n;
    st.watch.(l) <- ws
  end;
  st.watch.(l).(n) <- ci;
  st.watch_n.(l) <- n + 1

(* Watch slots 0 and 1 of learned clause [ci].  A unit clause needs no
   watch: it is asserted at level 0, where nothing unassigns it. *)
let watch_clause st ci =
  let c = st.lits.(ci) in
  if Array.length c >= 2 then begin
    add_watch st c.(0) ci;
    add_watch st c.(1) ci
  end

(* Register counter row [ci] in the occurrence arrays and set its slack
   counters from the current assignment. *)
let index_row st ci =
  let lits = st.lits.(ci) and coefs = st.coefs.(ci) in
  let poss = ref 0. and sure = ref 0. in
  for i = 0 to Array.length lits - 1 do
    let l = lits.(i) and a = coefs.(i) in
    add_occ st l ci a;
    let v = st.value.(l lsr 1) in
    if v < 0 then poss := !poss +. a
    else if v = l land 1 then begin
      poss := !poss +. a;
      sure := !sure +. a
    end
  done;
  st.poss.(ci) <- !poss;
  st.sure.(ci) <- !sure

(* Move row [src] to slot [dst] (database compaction). *)
let move_row st ~src ~dst =
  st.lits.(dst) <- st.lits.(src);
  st.coefs.(dst) <- st.coefs.(src);
  st.bound.(dst) <- st.bound.(src);
  st.tol.(dst) <- st.tol.(src);
  st.learned.(dst) <- st.learned.(src);
  st.origin.(dst) <- st.origin.(src)

let add_con ?(learned = false) ?(origin = -1) st (row : row) =
  if st.ncons = Array.length st.lits then begin
    let cap = max 16 (2 * st.ncons) in
    let grow a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 st.ncons;
      b
    in
    st.lits <- grow st.lits [||];
    st.coefs <- grow st.coefs [||];
    st.bound <- grow st.bound 0.;
    st.tol <- grow st.tol 0.;
    st.poss <- grow st.poss 0.;
    st.sure <- grow st.sure 0.;
    st.learned <- grow st.learned false;
    st.origin <- grow st.origin (-1)
  end;
  let ci = st.ncons in
  st.lits.(ci) <- row.lits;
  st.coefs.(ci) <- row.coefs;
  st.bound.(ci) <- row.bound;
  st.tol.(ci) <- row.tol;
  st.learned.(ci) <- learned;
  st.origin.(ci) <- origin;
  if learned then st.n_learned <- st.n_learned + 1;
  st.ncons <- st.ncons + 1;
  (* a new learned clause arrives with its watches in slots 0 and 1; other
     rows get occurrences and poss/sure reflecting the assignment *)
  if learned then watch_clause st ci else index_row st ci;
  ci

(* Attribute solver activity to the model row a con originated from.
   No-op without a tracker, for solver-internal cons (learned clauses,
   bound rows: origin -1) and for reason codes (negative [ci]). *)
let note_activity st bump ci =
  match st.row_stats with
  | None -> ()
  | Some rs -> if ci >= 0 then bump rs st.origin.(ci)

(* Queue the implications of a counter row whose slack shrank. *)
let enqueue_implications st ci =
  let bound = st.bound.(ci) and tol = st.tol.(ci) in
  if st.sure.(ci) < bound -. tol then begin
    let limit = st.poss.(ci) -. bound +. tol in
    let lits = st.lits.(ci) and coefs = st.coefs.(ci) in
    let n = Array.length lits in
    let i = ref 0 in
    while !i < n && coefs.(!i) > limit do
      let l = lits.(!i) in
      if st.value.(l lsr 1) < 0 then push_pending st l ci;
      incr i
    done
  end

(* Queue the implications of any row right after [rebuild_index], which
   leaves a learned clause's non-false literals in its watched slots: the
   clause is unit when slot 1 is false (or absent) and slot 0 unassigned. *)
let enqueue_row st ci =
  if st.learned.(ci) then begin
    let c = st.lits.(ci) in
    if
      (Array.length c = 1 || lit_false st c.(1))
      && st.value.(c.(0) lsr 1) < 0
    then push_pending st c.(0) ci
  end
  else enqueue_implications st ci

exception Conflict of int (* con index, or reason_bound *)

(* Visit the learned clauses watching literal [f], which just became
   false: move each watch to another non-false literal, or queue the
   clause's other watch when it is the last one left.  Returns the first
   clause found with every literal false, or -3. *)
let propagate_watches st f =
  let ws = st.watch.(f) and n = st.watch_n.(f) in
  let i = ref 0 and kept = ref 0 and conflict = ref (-3) in
  while !i < n do
    let ci = ws.(!i) in
    incr i;
    let c = st.lits.(ci) in
    if c.(0) = f then begin
      c.(0) <- c.(1);
      c.(1) <- f
    end;
    let other = c.(0) in
    if st.value.(other lsr 1) = other land 1 then begin
      (* satisfied by the other watch *)
      ws.(!kept) <- ci;
      incr kept
    end
    else begin
      let len = Array.length c in
      let k = ref 2 in
      while !k < len && lit_false st c.(!k) do incr k done;
      if !k < len then begin
        c.(1) <- c.(!k);
        c.(!k) <- f;
        add_watch st c.(1) ci
      end
      else begin
        ws.(!kept) <- ci;
        incr kept;
        if lit_false st other then begin
          conflict := ci;
          (* keep the unvisited watchers *)
          while !i < n do
            ws.(!kept) <- ws.(!i);
            incr kept;
            incr i
          done
        end
        else push_pending st other ci
      end
    end
  done;
  st.watch_n.(f) <- !kept;
  !conflict

(* Assign and update rows; raises [Conflict] (the trail keeps the
   assignment so that analysis sees a consistent state). *)
let assign st x v reason =
  if st.value.(x) >= 0 then begin
    if st.value.(x) <> v then
      (* the enqueued implication contradicts the current value: its reason
         row is conflicting under the assignment *)
      raise (Conflict reason)
  end
  else begin
    st.value.(x) <- v;
    st.level.(x) <- st.dlevel;
    st.reason.(x) <- reason;
    st.trail_pos.(x) <- st.trail_size;
    st.phase.(x) <- v;
    st.trail.(st.trail_size) <- x;
    st.trail_size <- st.trail_size + 1;
    if expensivep st x then st.lb_extra <- st.lb_extra +. Float.abs st.obj.(x);
    let t = lit_of x v in
    let rows = st.occ.(t) and cs = st.occ_coef.(t) in
    for k = st.occ_n.(t) - 1 downto 0 do
      let ci = rows.(k) in
      st.sure.(ci) <- st.sure.(ci) +. cs.(k)
    done;
    let f = t lxor 1 in
    (* learned clauses first, as the newest rows; every counter row is
       updated even after a conflict, so that [unassign] stays exact *)
    let conflict = ref (propagate_watches st f) in
    let rows = st.occ.(f) and cs = st.occ_coef.(f) in
    for k = st.occ_n.(f) - 1 downto 0 do
      let ci = rows.(k) in
      st.poss.(ci) <- st.poss.(ci) -. cs.(k);
      if row_violated st ci then begin
        if !conflict = -3 then conflict := ci
      end
      else enqueue_implications st ci
    done;
    if !conflict >= 0 then raise (Conflict !conflict);
    if bound_exceeded st then raise (Conflict reason_bound)
  end

let unassign st x =
  let v = st.value.(x) in
  st.value.(x) <- -1;
  Var_heap.push st.heap x;
  if (v = 1) = (st.obj.(x) > 0.) && st.obj.(x) <> 0. then
    st.lb_extra <- st.lb_extra -. Float.abs st.obj.(x);
  let t = lit_of x v in
  let rows = st.occ.(t) and cs = st.occ_coef.(t) in
  for k = 0 to st.occ_n.(t) - 1 do
    let ci = rows.(k) in
    st.sure.(ci) <- st.sure.(ci) -. cs.(k)
  done;
  let f = t lxor 1 in
  let rows = st.occ.(f) and cs = st.occ_coef.(f) in
  for k = 0 to st.occ_n.(f) - 1 do
    let ci = rows.(k) in
    st.poss.(ci) <- st.poss.(ci) +. cs.(k)
  done

let backtrack_to_level st lvl =
  if st.dlevel > lvl then begin
    let mark = st.trail_lim.(lvl) in
    while st.trail_size > mark do
      st.trail_size <- st.trail_size - 1;
      unassign st st.trail.(st.trail_size)
    done;
    st.dlevel <- lvl
  end;
  clear_pending st

let new_decision_level st =
  st.trail_lim.(st.dlevel) <- st.trail_size;
  st.dlevel <- st.dlevel + 1

(* Objective propagation: with an incumbent, a variable whose expensive
   value alone would exceed it must take its cheap value. *)
let propagate_objective st =
  match st.best with
  | None -> ()
  | Some (best, _) ->
      let slack = best -. obj_tol st -. cost_lb st in
      let n = Array.length st.by_cost in
      let i = ref 0 in
      while !i < n && Float.abs st.obj.(st.by_cost.(!i)) > slack do
        let x = st.by_cost.(!i) in
        if st.value.(x) < 0 then
          push_pending st (lit_of x (cheap_value st x)) reason_bound;
        incr i
      done

(* Drain the queue; raises [Conflict].  The objective scan only reruns when
   the cost lower bound moved (an expensive assignment happened). *)
let propagate st =
  propagate_objective st;
  while st.pend_size > 0 do
    let l = st.pend_lit.(st.pend_head)
    and reason = st.pend_reason.(st.pend_head) in
    st.pend_head <- (st.pend_head + 1) land (Array.length st.pend_lit - 1);
    st.pend_size <- st.pend_size - 1;
    let x = l lsr 1 and v = l land 1 in
    if st.value.(x) < 0 then begin
      st.n_propagations <- st.n_propagations + 1;
      note_activity st Row_stats.bump_propagation reason;
      let lb_before = st.lb_extra in
      assign st x v reason;
      if st.lb_extra <> lb_before then propagate_objective st
    end
    else if st.value.(x) <> v then raise (Conflict reason)
  done

(* ------------------------------------------------------------------ *)
(* Conflict analysis                                                   *)

(* Greedy-minimal subset of the expensive assignments whose flip could
   repair the objective bound: vars assigned their expensive value (before
   trail position [before_pos]) taken by descending cost until the
   remaining lower bound fits under the incumbent.  Smaller clauses learn
   more.  The subset is the eligible vars among [by_cost.(0 .. k-1)], for
   the returned [k]; its clausal literals are their cheap values. *)
let expensive_eligible st before_pos y =
  st.value.(y) >= 0 && expensivep st y && st.trail_pos.(y) < before_pos

let expensive_cut st ~before_pos ~extra =
  match st.best with
  | None -> 0
  | Some (best, _) ->
      let target = best -. obj_tol st -. st.base_lb -. st.obj_const -. extra in
      (* keep the assignments as long as their costs alone reach the
         incumbent: if none of them flips, no improvement is possible *)
      let n = Array.length st.by_cost in
      let sum = ref 0. and i = ref 0 in
      while !i < n && !sum < target do
        let y = st.by_cost.(!i) in
        if expensive_eligible st before_pos y then
          sum := !sum +. Float.abs st.obj.(y);
        incr i
      done;
      !i

let bump st x =
  Var_heap.bump st.heap x st.var_inc;
  if Var_heap.activity st.heap x > 1e100 then begin
    Var_heap.rescale st.heap 1e-100;
    st.var_inc <- st.var_inc *. 1e-100
  end

(* 1-UIP analysis over the clausal view of each row involved: for a PB row,
   its falsified literals (assigned before the propagated one, when it is
   a reason); for the objective bound, the cheap literals of a minimal
   expensive subset.  Literals are absorbed (bumped) in row order, and in
   reverse [by_cost] order for a subset.  Returns (learned clause, backjump
   level): the asserting literal comes first, then the lower-level literals
   in reverse absorb order.  Returns None when the conflict is independent
   of any decision (level 0): the model is exhausted. *)
let analyze st conflict_reason =
  let current = st.dlevel in
  if current = 0 then None
  else begin
    let counter = ref 0 and btlevel = ref 0 and nlearnt = ref 0 in
    let absorb l =
      let x = l lsr 1 in
      if (not st.seen.(x)) && st.level.(x) > 0 then begin
        st.seen.(x) <- true;
        bump st x;
        if st.level.(x) >= current then incr counter
        else begin
          st.learnt.(!nlearnt) <- l;
          incr nlearnt;
          if st.level.(x) > !btlevel then btlevel := st.level.(x)
        end
      end
    in
    let absorb_subset ~before_pos ~extra =
      let cut = expensive_cut st ~before_pos ~extra in
      for i = cut - 1 downto 0 do
        let y = st.by_cost.(i) in
        if expensive_eligible st before_pos y then
          absorb (lit_of y (cheap_value st y))
      done
    in
    (if conflict_reason = reason_bound then begin
       (* the assignment that tripped the bound is the newest trail entry
          and must appear in the clause so that analysis has a literal at
          the current decision level *)
       let cut = expensive_cut st ~before_pos:max_int ~extra:0. in
       (if st.trail_size > 0 then
          let x = st.trail.(st.trail_size - 1) in
          let rec in_subset i =
            i < cut && (st.by_cost.(i) = x || in_subset (i + 1))
          in
          if expensivep st x && not (in_subset 0) then
            absorb (lit_of x (cheap_value st x)));
       absorb_subset ~before_pos:max_int ~extra:0.
     end
     else begin
       let lits = st.lits.(conflict_reason) in
       for i = 0 to Array.length lits - 1 do
         let l = lits.(i) in
         let v = st.value.(l lsr 1) in
         if v >= 0 && v <> l land 1 then absorb l
       done
     end);
    let finish () =
      for i = 0 to !nlearnt - 1 do
        st.seen.(st.learnt.(i) lsr 1) <- false
      done
    in
    if !counter = 0 then begin
      (* conflict independent of the current level: only level-0 facts are
         involved, nothing to learn *)
      finish ();
      None
    end
    else begin
      let idx = ref (st.trail_size - 1) in
      let asserting = ref (-1) in
      while !asserting < 0 do
        (* find the most recent marked trail entry *)
        while not st.seen.(st.trail.(!idx)) do decr idx done;
        let x = st.trail.(!idx) in
        st.seen.(x) <- false;
        decr counter;
        if !counter = 0 then asserting := lit_of x (1 - st.value.(x))
        else begin
          let r = st.reason.(x) in
          (* the clausal reason of x, minus x itself *)
          let my_pos = st.trail_pos.(x) in
          if r = reason_bound then
            absorb_subset ~before_pos:my_pos ~extra:(Float.abs st.obj.(x))
          else begin
            (* the reason row participates in the conflict being analyzed *)
            note_activity st Row_stats.bump_conflict r;
            let lits = st.lits.(r) in
            for i = 0 to Array.length lits - 1 do
              let l = lits.(i) in
              let y = l lsr 1 in
              let v = st.value.(y) in
              if y <> x && v >= 0 && st.trail_pos.(y) < my_pos && v <> l land 1
              then absorb l
            done
          end;
          decr idx
        end
      done;
      finish ();
      st.var_inc <- st.var_inc *. 1.05;
      (* a conflict clause with no lower-level literals asserts at 0 *)
      let n = !nlearnt in
      let clause = Array.make (n + 1) !asserting in
      for i = 0 to n - 1 do
        clause.(i + 1) <- st.learnt.(n - 1 - i)
      done;
      Some (clause, !btlevel)
    end
  end

let learn_clause st lits =
  (* second watch on the highest-level literal, the first to be unassigned
     by a later backjump; slot 0 holds the asserting literal *)
  let n = Array.length lits in
  let level i = st.level.(lits.(i) lsr 1) in
  let hi = ref 1 in
  for i = 2 to n - 1 do
    if level i > level !hi then hi := i
  done;
  if !hi < n then begin
    let l = lits.(1) in
    lits.(1) <- lits.(!hi);
    lits.(!hi) <- l
  end;
  let row =
    { lits; coefs = Array.make (Array.length lits) 1.; bound = 1.; tol = 1e-9 }
  in
  st.n_learned_total <- st.n_learned_total + 1;
  add_con ~learned:true st row

(* Rebuild occurrence arrays, slack counters and watches from scratch
   under the current assignment (after any constraint-database compaction;
   decision level 0 only).  A learned clause's non-false literals move to
   its watched slots, so one left with a single such literal is unit and
   {!enqueue_row} queues it. *)
let rebuild_index st =
  Array.fill st.occ_n 0 (Array.length st.occ_n) 0;
  Array.fill st.watch_n 0 (Array.length st.watch_n) 0;
  for ci = 0 to st.ncons - 1 do
    if st.learned.(ci) then begin
      let c = st.lits.(ci) in
      let slot = ref 0 in
      for i = 0 to Array.length c - 1 do
        if !slot < 2 && not (lit_false st c.(i)) then begin
          let l = c.(i) in
          c.(i) <- c.(!slot);
          c.(!slot) <- l;
          incr slot
        end
      done;
      watch_clause st ci
    end
    else index_row st ci
  done

(* Learned-clause database reduction (call at decision level 0 only):
   drop the older half of the learned clauses, keeping short ones and
   every clause that is the recorded reason of a trail literal (pinned —
   resetting those reasons to decisions would blind 1-UIP analysis to
   their derivations).  Surviving rows keep their identity through an
   index remap. *)
let reduce_db st =
  let locked = Array.make (max st.ncons 1) false in
  for i = 0 to st.trail_size - 1 do
    let r = st.reason.(st.trail.(i)) in
    if r >= 0 then locked.(r) <- true
  done;
  let total_learned = st.n_learned in
  let learned_seen = ref 0 in
  let remap = Array.make (max st.ncons 1) (-1) in
  let ncons' = ref 0 in
  let kept_learned = ref 0 in
  for ci = 0 to st.ncons - 1 do
    let keep =
      if not st.learned.(ci) then true
      else begin
        incr learned_seen;
        let recent = !learned_seen > total_learned / 2 in
        let short = Array.length st.lits.(ci) <= 2 in
        if recent || short || locked.(ci) then begin
          incr kept_learned;
          true
        end
        else false
      end
    in
    if keep then begin
      move_row st ~src:ci ~dst:!ncons';
      remap.(ci) <- !ncons';
      incr ncons'
    end
  done;
  st.ncons <- !ncons';
  st.n_learned <- !kept_learned;
  (* remap trail reasons through the compaction (locked rows survived) *)
  for i = 0 to st.trail_size - 1 do
    let x = st.trail.(i) in
    let r = st.reason.(x) in
    if r >= 0 then st.reason.(x) <- remap.(r)
  done;
  rebuild_index st

(* ------------------------------------------------------------------ *)
(* Search                                                              *)

(* Returns false when the complete assignment does not improve on the
   incumbent — numerically possible despite the bound row, and a signal to
   stop rather than loop. *)
let record_incumbent st =
  let cost = cost_lb st in
  let improves =
    match st.best with None -> true | Some (c, _) -> cost < c -. obj_tol st
  in
  if improves then begin
    st.best <-
      Some (cost, Array.map (fun v -> float_of_int (max 0 v)) st.value);
    (* binding-at-incumbent: the assignment is complete here, so [sure] is
       the achieved LHS of every row — tight rows shape the incumbent *)
    match st.row_stats with
    | None -> ()
    | Some rs ->
        for ci = 0 to st.ncons - 1 do
          if
            st.origin.(ci) >= 0
            && Float.abs (st.sure.(ci) -. st.bound.(ci)) <= st.tol.(ci)
          then Row_stats.bump_binding rs st.origin.(ci)
        done
  end;
  improves

let improvement_gap st best =
  if st.obj_integral then 1. -. 1e-6
  else 1e-7 *. Float.max 1. (Float.abs best)

(* When every objective coefficient is integral the next incumbent must be
   at least 1 better: encode the bound row accordingly. *)
let bound_row st =
  match st.best with
  | None -> None
  | Some (best, _) ->
      (* Σ obj·x ≤ best - const - gap *)
      let terms =
        Array.to_list st.by_cost |> List.map (fun x -> (x, st.obj.(x)))
      in
      let gap = improvement_gap st best in
      let rhs = best -. st.obj_const -. gap in
      match normalize_row (Lin_expr.of_terms terms) Model.Le rhs with
      | [ row ] -> Some row
      | [] -> None (* nothing can beat the incumbent: exhausted *)
      | _ :: _ :: _ -> assert false
      | exception Trivially_infeasible ->
          None (* bound unreachable even with every literal true *)

exception Exhausted
exception Limits

(* Luby sequence 1,1,2,1,1,2,4,… (1-based). *)
let rec luby i =
  let k = ref 1 in
  while (1 lsl !k) - 1 < i do incr k done;
  if (1 lsl !k) - 1 = i then 1 lsl (!k - 1)
  else luby (i - (1 lsl (!k - 1)) + 1)

let search st ~on_event ~max_decisions ~time_limit ~lower_bound
    ~should_stop =
  let t0 = Archex_obs.Clock.now () in
  (* progress events: build nothing unless a callback is installed *)
  let emit kind data =
    match on_event with
    | None -> ()
    | Some f ->
        f
          { Archex_obs.Event.source = "pb";
            kind;
            elapsed = Archex_obs.Clock.now () -. t0;
            data = data () }
  in
  (* Best proven objective lower bound: starts at the caller's
     combinatorial bound and improves with the level-0 cost floor (valid
     for any solution still able to beat the incumbent, the usual
     best-bound semantics of branch-and-bound). *)
  let global_lb = ref lower_bound in
  let emitted_lb = ref neg_infinity in
  let with_best base =
    match st.best with
    | Some (c, _) -> ("incumbent", c) :: base
    | None -> base
  in
  let with_bound base =
    if Float.is_finite !global_lb then ("bound", !global_lb) :: base
    else base
  in
  let emit_bound () =
    if Float.is_finite !global_lb && !global_lb > !emitted_lb +. 1e-12 then begin
      emitted_lb := !global_lb;
      emit Archex_obs.Event.Bound (fun () ->
          with_best
            [ ("bound", !global_lb);
              ("conflicts", float_of_int st.n_conflicts) ])
    end
  in
  (* call at decision level 0, where cost_lb is a global fact *)
  let update_global_lb () =
    let lb = cost_lb st in
    if lb > !global_lb then global_lb := lb;
    emit_bound ()
  in
  let heartbeat () =
    emit Archex_obs.Event.Heartbeat (fun () ->
        let base =
          [ ("decisions", float_of_int st.n_decisions);
            ("conflicts", float_of_int st.n_conflicts);
            ("propagations", float_of_int st.n_propagations);
            ("learned", float_of_int st.n_learned);
            ("level", float_of_int st.dlevel) ]
        in
        with_best (with_bound base))
  in
  let ticks = ref 0 in
  let check_limits () =
    if st.n_decisions > max_decisions || st.n_conflicts > max_decisions then
      raise Limits;
    incr ticks;
    if on_event <> None && !ticks land 8191 = 0 then heartbeat ();
    (match should_stop with
    | Some stop when !ticks land 63 = 0 && stop () -> raise Limits
    | _ -> ());
    if !ticks land 255 = 0 then
      match time_limit with
      | Some tl when Archex_obs.Clock.now () -. t0 > tl -> raise Limits
      | _ -> ()
  in
  let by_cost_cursor = ref 0 in
  let handle_conflict reason =
    st.n_conflicts <- st.n_conflicts + 1;
    note_activity st Row_stats.bump_conflict reason;
    check_limits ();
    st.conflicts_until_restart <- st.conflicts_until_restart - 1;
    match analyze st reason with
    | None -> raise Exhausted
    | Some (lits, btlevel) ->
        backtrack_to_level st btlevel;
        by_cost_cursor := 0;
        let ci = learn_clause st lits in
        (* assert the UIP literal *)
        push_pending st lits.(0) ci
  in
  let rec propagate_fully () =
    match propagate st with
    | () -> ()
    | exception Conflict reason ->
        handle_conflict reason;
        propagate_fully ()
  in
  (* After st.best improved: constrain the search to strictly better
     solutions, or conclude the incumbent is optimal. *)
  let add_bound_row_or_exhaust () =
    match bound_row st with
    | Some row ->
        backtrack_to_level st 0;
        by_cost_cursor := 0;
        let ci = add_con st row in
        (* the new bound may already be conflicting at level 0 *)
        if row_violated st ci then raise Exhausted;
        clear_pending st;
        enqueue_implications st ci;
        propagate_fully ();
        update_global_lb ()
    | None -> raise Exhausted
  in
  let next_random () =
    (* Lehmer-style LCG, deterministic across runs *)
    st.rng <- (st.rng * 48271) land 0x3FFFFFFF;
    st.rng
  in
  let restart () =
    backtrack_to_level st 0;
    by_cost_cursor := 0;
    st.restart_sched <- st.restart_sched + 1;
    st.n_restarts <- st.n_restarts + 1;
    st.conflicts_until_restart <- 100 * luby (st.restart_sched + 1);
    (* diversification: jitter a few saved phases so successive descents do
       not replay the same trapped trajectory *)
    let nvars = Array.length st.phase in
    let flips = 1 + (nvars / 20) in
    for _ = 1 to flips do
      let x = next_random () mod nvars in
      st.phase.(x) <- 1 - st.phase.(x)
    done;
    if st.n_learned > 2000 then begin
      reduce_db st;
      (* kept rows may propagate under the level-0 assignment *)
      for ci = 0 to st.ncons - 1 do
        enqueue_row st ci
      done;
      propagate_fully ()
    end;
    update_global_lb ()
  in
  (* Cost-bearing variables are decided first (largest coefficient first):
     with cheap-first phases this enumerates architectures by cost shape,
     and the incumbent bound prunes directly on those decisions.  Ties and
     the zero-cost remainder go to the activity heap. *)
  let rec pick_heap () =
    match Var_heap.pop_max st.heap with
    | None -> None
    | Some x -> if st.value.(x) < 0 then Some x else pick_heap ()
  in
  let rec pick_decision () =
    if !by_cost_cursor < Array.length st.by_cost then begin
      let x = st.by_cost.(!by_cost_cursor) in
      if st.value.(x) < 0 then Some x
      else begin
        incr by_cost_cursor;
        pick_decision ()
      end
    end
    else pick_heap ()
  in
  let finish hit_limit =
    ( hit_limit,
      if Float.is_finite !global_lb then Some !global_lb else None )
  in
  try
    propagate_fully ();
    update_global_lb ();
    while true do
      check_limits ();
      if st.conflicts_until_restart <= 0 && st.dlevel > 0 then
        restart ();
      match pick_decision () with
      | None ->
          if not (record_incumbent st) then raise Exhausted;
          emit Archex_obs.Event.Incumbent (fun () ->
              with_bound
                [ ( "incumbent",
                    match st.best with Some (c, _) -> c | None -> nan );
                  ("decisions", float_of_int st.n_decisions);
                  ("conflicts", float_of_int st.n_conflicts) ]);
          (* a known objective lower bound proves optimality as soon as the
             incumbent cannot be beaten by the improvement gap *)
          (match st.best with
          | Some (best, _)
            when best -. improvement_gap st best
                 < lower_bound -. (1e-9 *. Float.max 1. (Float.abs best)) ->
              raise Exhausted
          | Some _ | None -> ());
          add_bound_row_or_exhaust ()
      | Some x ->
          st.n_decisions <- st.n_decisions + 1;
          new_decision_level st;
          (match assign st x st.phase.(x) reason_decision with
          | () -> ()
          | exception Conflict reason -> handle_conflict reason);
          propagate_fully ()
    done;
    finish false
  with
  | Exhausted ->
      (* the search space is exhausted: any incumbent is proven optimal,
         so the lower bound closes onto it *)
      (match st.best with
      | Some (c, _) ->
          if c > !global_lb then global_lb := c;
          emit_bound ()
      | None -> ());
      finish false
  | Limits -> finish true

(* ------------------------------------------------------------------ *)
(* State construction and entry point                                  *)

let build_state ?row_stats m =
  let nvars = Model.var_count m in
  (* each con remembers the model row (insertion index) it came from; an
     Eq row normalizes into two cons sharing one origin *)
  let rows = ref [] in
  let row_index = ref (-1) in
  Model.iter_constraints m (fun r ->
      incr row_index;
      List.iter (fun c -> rows := (!row_index, c) :: !rows)
        (normalize_row r.expr r.cmp r.rhs));
  let rows = List.rev !rows in
  let obj = Array.make nvars 0. in
  List.iter (fun (x, a) -> obj.(x) <- a)
    (Lin_expr.terms (Model.objective m));
  let base_lb =
    Array.fold_left (fun acc c -> acc +. Float.min 0. c) 0. obj
  in
  let by_cost =
    List.init nvars Fun.id
    |> List.filter (fun x -> obj.(x) <> 0.)
    |> List.sort (fun a b ->
           Float.compare (Float.abs obj.(b)) (Float.abs obj.(a)))
    |> Array.of_list
  in
  let obj_integral =
    Array.for_all (fun c -> Float.abs (c -. Float.round c) < 1e-9) obj
    && Float.abs (Lin_expr.constant (Model.objective m)) < 1e18
  in
  let heap = Var_heap.create nvars in
  let st =
    { ncons = 0;
      lits = Array.make 16 [||];
      coefs = Array.make 16 [||];
      bound = Array.make 16 0.;
      tol = Array.make 16 0.;
      poss = Array.make 16 0.;
      sure = Array.make 16 0.;
      learned = Array.make 16 false;
      origin = Array.make 16 (-1);
      n_learned = 0;
      n_learned_total = 0;
      row_stats;
      occ = Array.make (2 * nvars) [||];
      occ_coef = Array.make (2 * nvars) [||];
      occ_n = Array.make (2 * nvars) 0;
      watch = Array.make (2 * nvars) [||];
      watch_n = Array.make (2 * nvars) 0;
      value = Array.make nvars (-1);
      level = Array.make nvars 0;
      reason = Array.make nvars reason_decision;
      trail_pos = Array.make nvars 0;
      trail = Array.make (max nvars 1) 0;
      trail_size = 0;
      trail_lim = Array.make (nvars + 1) 0;
      dlevel = 0;
      obj;
      obj_const = Lin_expr.constant (Model.objective m);
      base_lb;
      lb_extra = 0.;
      by_cost;
      obj_integral;
      pend_lit = Array.make 256 0;
      pend_reason = Array.make 256 0;
      pend_head = 0;
      pend_size = 0;
      heap;
      var_inc = 1.;
      phase = Array.init nvars (fun x -> if obj.(x) >= 0. then 0 else 1);
      best = None;
      n_decisions = 0;
      n_propagations = 0;
      n_conflicts = 0;
      n_restarts = 0;
      restart_sched = 0;
      conflicts_until_restart = 100 * luby 1;
      seen = Array.make nvars false;
      learnt = Array.make nvars 0;
      rng = 0x2545F49 }
  in
  (* register the rows through add_con so occurrences and slack counters
     are consistent *)
  List.iter (fun (origin, row) -> ignore (add_con ~origin st row)) rows;
  (* seed decision activities: objective weight dominates, participation
     breaks ties *)
  let max_obj =
    Array.fold_left (fun acc c -> Float.max acc (Float.abs c)) 1. obj
  in
  for x = 0 to nvars - 1 do
    let occ = float_of_int (st.occ_n.(2 * x) + st.occ_n.((2 * x) + 1)) in
    Var_heap.bump heap x
      ((4. *. Float.abs obj.(x) /. max_obj) +. (0.001 *. occ))
  done;
  st

let record_metrics metrics (stats : stats) =
  let module M = Archex_obs.Metrics in
  if M.enabled metrics then begin
    M.add (M.counter metrics "pb.decisions") (float_of_int stats.decisions);
    M.add
      (M.counter metrics "pb.propagations")
      (float_of_int stats.propagations);
    M.add (M.counter metrics "pb.conflicts") (float_of_int stats.conflicts);
    M.add (M.counter metrics "pb.restarts") (float_of_int stats.restarts);
    M.add (M.counter metrics "pb.learned") (float_of_int stats.learned)
  end

let solve ?(metrics = Archex_obs.Metrics.null) ?on_event ?rows
    ?(max_decisions = max_int) ?time_limit ?(lower_bound = neg_infinity)
    ?should_stop m =
  match build_state ?row_stats:rows m with
  | exception Trivially_infeasible -> (Infeasible, zero_stats)
  | st -> (
      let finish hit_limit bound =
        let stats =
          { decisions = st.n_decisions;
            propagations = st.n_propagations;
            conflicts = st.n_conflicts;
            restarts = st.n_restarts;
            learned = st.n_learned_total;
            bound }
        in
        record_metrics metrics stats;
        let outcome =
          if hit_limit then Limit_reached { incumbent = st.best }
          else
            match st.best with
            | Some (objective, solution) -> Optimal { objective; solution }
            | None -> Infeasible
        in
        (outcome, stats)
      in
      match
        (* root-level fixings from the model bounds *)
        for x = 0 to Array.length st.value - 1 do
          let lb = Model.lower_bound m x and ub = Model.upper_bound m x in
          if lb > 0.5 then assign st x 1 reason_decision
          else if ub < 0.5 then assign st x 0 reason_decision
        done
      with
      | () ->
          let hit_limit, bound =
            search st ~on_event ~max_decisions ~time_limit ~lower_bound
              ~should_stop
          in
          finish hit_limit bound
      | exception Conflict _ ->
          (* the fixings contradict each other under the model rows *)
          finish false None)
